package mini

import (
	"math/rand"
	"testing"
)

func TestFormatRoundTripFixed(t *testing.T) {
	srcs := []string{
		`fn main(x int) { if (x > 0) { error("pos"); } }`,
		`fn main(x int, s [4]int) int {
			var a [3];
			a[x] = s[0] + 1;
			while (x < 10) { x = x + 1; }
			if (x == 10) { return a[0]; } else { if (x > 20) { return 1; } }
			return 0;
		}`,
		`fn f(a [2]int, k int) { a[0] = k; }
		 fn main(y int) { var b [2]; f(b, y); if (!(y == 1) && (y < 5 || y > 9)) { error("e"); } }`,
		`fn g() int { return -3; }
		 fn main(z int) { var q = g() * -z / 2 % 3; if (q != 0) { g(); } }`,
	}
	for _, src := range srcs {
		p1, err := Parse(src)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		text := Format(p1)
		p2, err := Parse(text)
		if err != nil {
			t.Fatalf("re-parse of formatted output failed: %v\n%s", err, text)
		}
		if !EqualAST(p1, p2) {
			t.Fatalf("round trip changed the AST:\n--- original ---\n%s\n--- formatted ---\n%s", src, text)
		}
		// Formatting is a fixpoint after one round.
		if Format(p2) != text {
			t.Fatalf("formatting is not idempotent:\n%s\nvs\n%s", text, Format(p2))
		}
	}
}

// TestFormatRoundTripRandom: parse∘Format is the identity on random programs.
func TestFormatRoundTripRandom(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	for iter := 0; iter < 150; iter++ {
		src := GenProgram(r, GenConfig{Natives: []string{"hash"}, NumHelpers: 2})
		p1, err := Parse(src)
		if err != nil {
			t.Fatalf("parse: %v\n%s", err, src)
		}
		text := Format(p1)
		p2, err := Parse(text)
		if err != nil {
			t.Fatalf("iter %d: re-parse failed: %v\n%s", iter, err, text)
		}
		if !EqualAST(p1, p2) {
			t.Fatalf("iter %d: round trip changed the AST\n%s", iter, text)
		}
	}
}

func TestEqualASTDetectsDifferences(t *testing.T) {
	a := MustParse(`fn main(x int) { if (x > 0) { error("a"); } }`)
	cases := []string{
		`fn main(x int) { if (x > 1) { error("a"); } }`,               // different literal
		`fn main(x int) { if (x > 0) { error("b"); } }`,               // different message
		`fn main(y int) { if (y > 0) { error("a"); } }`,               // different param name
		`fn main(x int) { if (x > 0) { error("a"); } x = 1; }`,        // extra stmt
		`fn main(x int) int { if (x > 0) { error("a"); } return 0; }`, // ret type
	}
	for _, src := range cases {
		b := MustParse(src)
		if EqualAST(a, b) {
			t.Fatalf("EqualAST failed to distinguish:\n%s", src)
		}
	}
	if !EqualAST(a, MustParse(`fn main(x int) { if (x > 0) { error("a"); } }`)) {
		t.Fatal("EqualAST should accept an identical program")
	}
}
