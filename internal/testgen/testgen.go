// Package testgen generates MiniC programs for the generative oracle
// tests: the WCET soundness fuzz test and the closed-form retiming oracle
// both check their fast paths against an oracle on its output. Only tests
// import it.
package testgen

import (
	"fmt"
	"math/rand"
	"strings"
)

// LoopProgram emits a random but always-terminating MiniC program with
// data-dependent control flow inside bounded loops, exercising the whole
// toolchain: compiler, flow facts, simulation, IPET and (optionally) cache
// analysis. Its objects are the globals tbl and bias and the functions
// main and mix.
func LoopProgram(rng *rand.Rand) string {
	n := 8 + rng.Intn(24) // array length
	iters := 5 + rng.Intn(40)
	var sb strings.Builder
	fmt.Fprintf(&sb, "int tbl[%d] = {", n)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%d", rng.Intn(2001)-1000)
	}
	sb.WriteString("};\n")
	fmt.Fprintf(&sb, "int bias = %d;\n", rng.Intn(100))
	sb.WriteString(`
int mix(int a, int b) {
    int r = a ^ (b << 1);
    if (r < 0) r = -r;
    return r + bias;
}
`)
	sb.WriteString("int main() {\n    int acc = 0;\n")
	fmt.Fprintf(&sb, "    for (int i = 0; i < %d; i += 1) {\n", iters)
	fmt.Fprintf(&sb, "        int v = tbl[i %% %d];\n", n)
	switch rng.Intn(3) {
	case 0:
		fmt.Fprintf(&sb, "        if (v > %d) acc += mix(v, i); else acc -= v;\n", rng.Intn(500)-250)
	case 1:
		sb.WriteString("        if (v % 3 == 0) acc += v; else if (v % 3 == 1) acc -= v; else acc ^= v;\n")
	default:
		fmt.Fprintf(&sb, "        acc += v > acc ? mix(v, acc & 15) : (v - acc) %% 97;\n")
	}
	// Occasionally add a nested bounded inner loop.
	if rng.Intn(2) == 0 {
		inner := 2 + rng.Intn(6)
		fmt.Fprintf(&sb, "        for (int j = 0; j < %d; j += 1) acc += tbl[j %% %d] & 7;\n", inner, n)
	}
	sb.WriteString("    }\n    return acc;\n}\n")
	return sb.String()
}
