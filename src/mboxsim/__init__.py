"""Classical round-by-round simulation of two-qubit measurement statistics.

A family of partially entangled states is simulated by local strategies
plus bounded resources: shared random unit vectors, one classical bit from
Alice to Bob, and one call to a comparison box per round.  The package
contains the protocol engines, the exact quantum targets, an EPR2-style
local/nonlocal split, deterministic batch execution, and a verification
layer whose oracles are independent of the sampling paths they check.

Each public name has one home, the submodule that defines it, and is
imported from there (``from mboxsim.runtime import run_experiment``); the
package itself exports only its version.
"""

__version__ = "0.18.0"

__all__ = ["__version__"]
