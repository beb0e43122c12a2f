// Package fakesweeper exercises floatorder against the real sched
// package: the callbacks below are exactly the shapes the fleet
// Monte Carlo and the NCAR sweeps use.
package fakesweeper

import (
	"io"

	"sx4bench/internal/core/sched"
)

// BadSum shares a float accumulator across workers.
func BadSum(n int) float64 {
	sum := 0.0
	sched.ForEach(0, n, func(i int) error {
		sum += float64(i) // want `order-dependent float reduction: "\+=" on sum`
		return nil
	})
	return sum
}

// BadProduct multiplies in completion order.
func BadProduct(n int) float64 {
	p := 1.0
	sched.ForEach(0, n, func(i int) error {
		p *= 1.0001 // want `order-dependent float reduction: "\*=" on p`
		return nil
	})
	return p
}

// BadExplicit spells the compound assignment out long-hand.
func BadExplicit(n int) float64 {
	sum := 0.0
	sched.ForEach(0, n, func(i int) error {
		sum = sum + float64(i) // want `order-dependent float reduction: "self-referential =" on sum`
		return nil
	})
	return sum
}

// BadTask accumulates through a pointer from a Task Run function.
func BadTask(total *float64) sched.Task {
	return sched.Task{
		ID: "t",
		Run: func(w io.Writer) error {
			*total += 1.0 // want `order-dependent float reduction: "\+=" on total`
			return nil
		},
	}
}

// GoodMap collects per-index values and folds them serially.
func GoodMap(n int) float64 {
	vals, _ := sched.Map(0, n, func(i int) (float64, error) {
		return float64(i), nil
	})
	total := 0.0
	for _, v := range vals {
		total += v
	}
	return total
}

// GoodLocal accumulates into a variable local to the callback, then
// publishes it with a per-index write.
func GoodLocal(n int) []float64 {
	out := make([]float64, n)
	sched.ForEach(0, n, func(i int) error {
		acc := 0.0
		for j := 0; j < 4; j++ {
			acc += float64(i * j)
		}
		out[i] = acc
		return nil
	})
	return out
}

// CountEven mutates a shared int: not floatorder's concern (no
// rounding to reorder).
func CountEven(n int) int {
	count := 0
	sched.ForEach(1, n, func(i int) error {
		if i%2 == 0 {
			count++
		}
		return nil
	})
	return count
}
