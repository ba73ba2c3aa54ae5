"""Machine-speed calibration for the end-to-end rates.

On a shared machine the speed of the same code drifts by 20-50% within
minutes, because of other tenants. ``speed(kernels)`` times fixed numpy
kernels that do not depend on pdedag: ``solver_step`` is shaped like the
spectral solver's inner step (length-384 FFTs and a cubic on small arrays),
``decoder_layer`` like a decoder layer (a (4096, 32) float64 matmul and
elementwise work). It returns their rate relative to REFERENCE_RATES: 1.0
means reference speed, 0.8 means the machine currently runs this kind of
code 20% slower.

Dividing a rate measured next to the calibration by ``speed()`` removes most
of that drift; a change in pdedag moves the rate and never the calibration.
Each workload is calibrated with the kernels shaped like its hot loop: on
this machine a mismatched kernel tracked the drift no better than none.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Kernel calls per second, measured on a 2-vCPU x86_64 virtual machine (Intel Xeon,
# one BLAS thread). Any fixed values work: they only set the scale.
REFERENCE_RATES = {"solver_step": 800.0, "decoder_layer": 250.0}
SECONDS_PER_KERNEL = 0.25

_rng = np.random.default_rng(0)
_STATE = _rng.random(384)
_MIX = _rng.random(193) + 1j * _rng.random(193)
_ACT = _rng.random((4096, 32))
_WEIGHT = _rng.random((32, 32)) / 32


def solver_step() -> None:
    u = np.fft.rfft(_STATE)
    for _ in range(30):
        v = np.fft.irfft(u, n=384)
        cubic = ((0.1 * v + 0.2) * v + 0.3) * v
        u = 0.5 * (u + 1e-3 * _MIX * np.fft.rfft(cubic))


def decoder_layer() -> None:
    h = _ACT
    for _ in range(3):
        h = np.clip((h @ _WEIGHT) * _ACT + _ACT, -5.0, 5.0)


KERNELS = {"solver_step": solver_step, "decoder_layer": decoder_layer}


def _rate(kernel, seconds: float) -> float:
    start = time.perf_counter()
    calls = 0
    while True:
        kernel()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return calls / elapsed


def speed(kernels: tuple[str, ...], seconds: float = SECONDS_PER_KERNEL) -> float:
    """Current machine speed for ``kernels``: the geometric mean of their
    rates relative to REFERENCE_RATES."""
    logs = [math.log(_rate(KERNELS[k], seconds) / REFERENCE_RATES[k]) for k in kernels]
    return math.exp(sum(logs) / len(logs))
