"""Sensitivity of the performance model to its calibrated inputs.

The §4.3 calibration measures four quantities (BW, α, γ, T_comp).  How
much does each matter?  This module computes normalized sensitivities
(elasticities) of the predicted iteration time to each input via central
finite differences:

    S_x = (dT / T) / (dx / x)

An elasticity of 1.0 means a 10 % measurement error in that input shifts
the prediction by 10 %; near 0 means the input barely matters for this
configuration.  Practitioners can use this to decide which calibration
measurement deserves the most care — e.g. syncSGD on a comm-bound BERT
is all bandwidth, while PowerSGD is nearly all ``T_comp``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

from ..compression.kernel_cost import KernelProfile, v100_kernel_profile
from ..compression.schemes import Scheme, SyncSGDScheme
from ..errors import ConfigurationError
from ..hardware import GPUSpec, V100
from ..models import ModelSpec
from ..core.perf_model import PerfModelInputs, predict

#: Relative perturbation used for the central differences.
DEFAULT_EPSILON = 0.02


@dataclass(frozen=True)
class Sensitivities:
    """Elasticities of predicted iteration time to each model input."""

    bandwidth: float
    alpha: float
    gamma: float
    compute: float
    encode: float

    def as_dict(self) -> Dict[str, float]:
        """Each input's elasticity by name."""
        return {"bandwidth": self.bandwidth, "alpha": self.alpha,
                "gamma": self.gamma, "compute": self.compute,
                "encode": self.encode}

    def most_sensitive(self) -> str:
        """The input whose measurement error matters most."""
        return max(self.as_dict(), key=lambda k: abs(self.as_dict()[k]))

    def render(self) -> str:
        """The elasticities, largest magnitude first."""
        lines = ["prediction elasticities (dT/T per dx/x):"]
        for name, value in sorted(self.as_dict().items(),
                                  key=lambda kv: -abs(kv[1])):
            lines.append(f"  {name:<10} {value:+.3f}")
        return "\n".join(lines)


def _elasticity(f_plus: float, f_minus: float, f_base: float,
                epsilon: float) -> float:
    if f_base <= 0:
        raise ConfigurationError("baseline prediction must be > 0")
    return (f_plus - f_minus) / (2.0 * epsilon * f_base)


def model_sensitivities(model: ModelSpec, scheme: Scheme,
                        inputs: PerfModelInputs, gpu: GPUSpec = V100,
                        profile: Optional[KernelProfile] = None,
                        epsilon: float = DEFAULT_EPSILON) -> Sensitivities:
    """Central-difference elasticities of the §4 prediction."""
    if not 0 < epsilon < 0.5:
        raise ConfigurationError(
            f"epsilon must be in (0, 0.5), got {epsilon}")
    prof = profile if profile is not None else v100_kernel_profile()
    base = predict(model, scheme, inputs, gpu, prof).total

    def perturbed_inputs(**changes) -> PerfModelInputs:
        return replace(inputs, **changes)

    # Bandwidth.
    bw = inputs.bandwidth_bytes_per_s
    s_bw = _elasticity(
        predict(model, scheme,
                perturbed_inputs(bandwidth_bytes_per_s=bw * (1 + epsilon)),
                gpu, prof).total,
        predict(model, scheme,
                perturbed_inputs(bandwidth_bytes_per_s=bw * (1 - epsilon)),
                gpu, prof).total,
        base, epsilon)

    # Alpha.
    alpha = inputs.alpha_s
    if alpha > 0:
        s_alpha = _elasticity(
            predict(model, scheme,
                    perturbed_inputs(alpha_s=alpha * (1 + epsilon)),
                    gpu, prof).total,
            predict(model, scheme,
                    perturbed_inputs(alpha_s=alpha * (1 - epsilon)),
                    gpu, prof).total,
            base, epsilon)
    else:
        s_alpha = 0.0

    # Gamma (only defined above 1; perturb upward-compatible range).
    gamma = inputs.gamma
    hi = gamma * (1 + epsilon)
    lo = max(1.0, gamma * (1 - epsilon))
    actual_eps = (hi - lo) / (2.0 * gamma)
    s_gamma = _elasticity(
        predict(model, scheme, perturbed_inputs(gamma=hi), gpu,
                prof).total,
        predict(model, scheme, perturbed_inputs(gamma=lo), gpu,
                prof).total,
        base, actual_eps) if actual_eps > 0 else 0.0

    # Compute speed (T_comp scales inversely with GPU speed).
    s_compute = -_elasticity(
        predict(model, scheme, inputs, gpu.scaled(1 + epsilon),
                prof).total,
        predict(model, scheme, inputs, gpu.scaled(1 - epsilon),
                prof).total,
        base, epsilon)

    # Encode/decode speed (kernel profile).
    if isinstance(scheme, SyncSGDScheme):
        s_encode = 0.0
    else:
        s_encode = -_elasticity(
            predict(model, scheme, inputs, gpu,
                    prof.scaled(1 + epsilon)).total,
            predict(model, scheme, inputs, gpu,
                    prof.scaled(1 - epsilon)).total,
            base, epsilon)

    return Sensitivities(bandwidth=s_bw, alpha=s_alpha, gamma=s_gamma,
                         compute=s_compute, encode=s_encode)
