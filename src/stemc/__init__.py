"""stemc: compile quantized feed-forward nets into bit-serial spiking networks.

The toolchain has three legs:

* quantizer/refengine - post-training quantization of a float model and the
  integer reference engine that defines what "correct" means,
* stem/netsim - the bit-serial spiking execution model and the compiler +
  simulator that must reproduce the reference engine integer-for-integer,
* sparsity/metrics - spike-count reduction knobs and the synaptic-operation /
  energy accounting used to judge them.

Everything downstream of quantization is integer-only and deterministic.
"""

__version__ = "0.1.0"

from .fixedpoint import FixedMult, from_real, apply

__all__ = ["FixedMult", "from_real", "apply", "__version__"]
