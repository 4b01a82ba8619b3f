package partition

import "testing"

// FuzzProportionalLoads checks the allocator's invariants on arbitrary
// inputs: whenever it succeeds, the loads sum to k(s+1), respect 0 ≤ n ≤ k,
// no single-copy move lowers the makespan, and the cyclic placement
// validates.
func FuzzProportionalLoads(f *testing.F) {
	f.Add(uint8(5), uint8(7), uint8(1), uint16(12345))
	f.Add(uint8(3), uint8(3), uint8(2), uint16(1))
	f.Add(uint8(10), uint8(40), uint8(3), uint16(9999))
	f.Fuzz(func(t *testing.T, mRaw, kRaw, sRaw uint8, mix uint16) {
		m := int(mRaw%16) + 1
		k := int(kRaw%64) + 1
		s := int(sRaw % 4)
		c := make([]float64, m)
		x := uint32(mix) + 1
		for i := range c {
			x = x*1664525 + 1013904223 // LCG: deterministic pseudo-speeds
			c[i] = float64(x%97)/10 + 0.1
		}
		loads, err := ProportionalLoads(c, k, s)
		if err != nil {
			return // invalid shapes are allowed to fail
		}
		total := 0
		for i, n := range loads {
			if n < 0 || n > k {
				t.Fatalf("load[%d]=%d outside [0,%d] (c=%v k=%d s=%d)", i, n, k, c, k, s)
			}
			total += n
		}
		if total != k*(s+1) {
			t.Fatalf("Σloads=%d != k(s+1)=%d", total, k*(s+1))
		}
		best := makespan(loads, c)
		for from := range loads {
			for to := range loads {
				if from == to || loads[from] == 0 || loads[to] == k {
					continue
				}
				loads[from]--
				loads[to]++
				if moved := makespan(loads, c); moved < best {
					t.Fatalf("moving a copy from worker %d to %d takes the makespan from %v to %v (c=%v k=%d s=%d)", from, to, best, moved, c, k, s)
				}
				loads[from]++
				loads[to]--
			}
		}
		alloc, err := CyclicFromLoads(loads, k, s)
		if err != nil {
			t.Fatalf("cyclic placement failed on valid loads: %v", err)
		}
		if err := alloc.Validate(); err != nil {
			t.Fatalf("allocation invalid: %v", err)
		}
	})
}
