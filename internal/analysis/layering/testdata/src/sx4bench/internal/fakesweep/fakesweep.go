// Package fakesweep is a layering fixture for the compiled-trace path:
// a driver above the model layer pre-flattens traces with
// internal/sx4/prog and executes them through Target.RunCompiled —
// both sanctioned — but must not reach for the concrete engines to get
// at their compiled internals.
package fakesweep

import (
	_ "sx4bench/internal/machine"  // want `import of sx4bench/internal/machine \(the concrete comparator models\) above the model layer`
	_ "sx4bench/internal/sx4"      // want `import of sx4bench/internal/sx4 \(the concrete SX-4 model\) above the model layer`
	_ "sx4bench/internal/sx4/prog" // prog.Compile is the sanctioned way to pre-flatten a trace
	_ "sx4bench/internal/target"   // Target.RunCompiled is the sanctioned way to execute one
)
