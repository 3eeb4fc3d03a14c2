package parser

import (
	"testing"

	"logicblox/internal/compiler"
)

// fuzzSeeds are the sources the unit tests above parse (every construct of
// the grammar once) and the malformed ones TestParseErrors rejects.
var fuzzSeeds = []string{
	`profit[sku] = z <- sellingPrice[sku] = x, buyingPrice[sku] = y, z = x - y.`,
	`profit[sku] = sellingPrice[sku] - buyingPrice[sku] <- Product(sku).`,
	`totalShelf[] = u <- agg<<u = sum(z)>> Stock[p] = x, spacePerProd[p] = y, z = x * y.`,
	`n[] = c <- agg<<c = count()>> Product(p).`,
	`spacePerProd[p] = v -> Product(p), float(v).
	 Product(p) -> Stock[p] = _.
	 totalShelf[] = u, maxShelf[] = v -> u <= v.
	 Product(p) -> Stock[p] >= minStock[p].`,
	`maxShelf[] = v -> float[64](v).`,
	`+sales["Popsicle", "2015-01"] = 122.
	 ^price["Popsicle"] = 0.8 * x <-
		price@start["Popsicle"] = x,
		sales@start["Popsicle", "2015-01"] < 50,
		+promo("Popsicle", "2015-01").`,
	`lang_edb(n) <- lang_predname(n), !lang_idb(n).`,
	"lang:solve:variable(`Stock).\nlang:solve:max(`totalProfit).",
	`SM[sku, store] = m <- predict<<m = logist(v|f)>>
		Sales[sku, store, wk] = v, Feature[sku, store, n] = f.`,
	`_(x, s) <- week_sales[x] = s.`,
	`// Base predicates:
	 a(x) <- b(x). /* block
	 comment */ c(x) <- a(x).`,
	`x[] = 122. y[] = 0.8. z[] = -3. w[] = 1.5e3.`,
	`path(x, y) <- edge(x, y). path(x, z) <- path(x, y), edge(y, z).`,
	`total[] = u <- agg<<u = sum(x)>> f(x). f(x) <- total[] = x.`,
	`a(x) <- b(x)`,
	`a(x <- b(x).`,
	`a(x) <- @ b(x).`,
	`"unterminated`,
	`a(x) -> b(x`,
	`x[] = 1 <<- y(x).`,
	`lang:solve:max(`,
	`a(x) <- b@future(x).`,
}

// FuzzParse: whatever the bytes, Parse returns a program or an error — no
// panic, no hang — and a program it accepts goes through the compiler the
// same way (there is no AST printer to round-trip through, so the compiler
// is the parser's one downstream consumer to hold up).
func FuzzParse(f *testing.F) {
	for _, src := range fuzzSeeds {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			return
		}
		if prog == nil {
			t.Fatalf("Parse(%q) returned neither a program nor an error", src)
		}
		_, _ = compiler.Compile(prog) // rejecting is fine; panicking is not
	})
}
