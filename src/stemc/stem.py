"""Bit-serial wire format: the per-step decode weights of a train and its bits.

A value is transmitted over K time steps as a binary spike train carrying its
two's-complement bits most-significant-first: the bit at position p is on the
wire at step ``K-1-p``. A receiving neuron therefore weights the spike row at
step t by

    phi(t) = -2^(K-1)   if the train is signed and t == 0 (sign bit)
             +2^(K-1-t) otherwise

(``step_weights`` gives all K as one array), and the weighted per-step sums,
scaled by the overflow-protection constant M0, accumulate into a saturating
n-bit integrator U. After the K-th step the integrator is rescheduled into
the output value domain by M1, the bias is added, and the clamped result V
is emitted as a fresh train: at step t the neuron fires iff V >= 2^(K-1-t),
subtracting the threshold when it does. This greedy emission gives exactly
the binary digits of V for any V in [0, 2^(K-1)-1], so a train is the
integer it carries. The integration is ``netsim``'s, and independently
``refengine``'s.

Signed wires (the network input and the final-layer logits, as
``modelio.signed_wires`` decides for both engines) carry two's-complement
trains directly; threshold emission is only defined for V >= 0.
"""

from __future__ import annotations

import numpy as np


def step_weights(k: int, signed: bool) -> np.ndarray:
    """The K per-step decode weights phi(t) of a wire, int64 [K]."""
    phi = 1 << np.arange(k - 1, -1, -1, dtype=np.int64)
    if signed:
        phi[0] = -phi[0]
    return phi


def check_encodable(values: np.ndarray, k: int, signed: bool) -> None:
    """Raise ValueError unless every value fits a K-step wire."""
    lo = -(1 << (k - 1)) if signed else 0
    hi = (1 << (k - 1)) - 1
    if values.size and (int(values.min()) < lo or int(values.max()) > hi):
        raise ValueError(f"values outside encodable range [{lo}, {hi}]")
