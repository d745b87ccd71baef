"""Spectral risk functionals, their natural Banach domains, and dual gauges.

The package works with finitely supported laws throughout: distributions are
step quantile functions, spectra are nonnegative nondecreasing unit-mass
weights on (0, 1), and every risk value, norm, dual gauge, mixing measure and
embedding constant is computed in closed form on the step structure.  Two
closed-form families (AVaR and the inverse-square-root spectrum) and
``GeneralSpectrum``, closed forms the caller declares in gap coordinates,
cover the non-step cases.
"""

from .dual import (
    DominanceCertificate,
    DualNorm,
    dominates,
    dual_norm,
    hahn_banach_witness,
    indicator_dual_norm,
    pairing,
    quantile_density_ratio_bound,
)
from .embedding import (
    EmbeddingConstant,
    SandwichReport,
    avar_sandwich_check,
    comparability_constant,
    identity_norm,
    sharpness_witness,
)
from .extremal import (
    DivergenceReport,
    LinfEscape,
    LpEscape,
    heavy_tail_quantile,
    l1_divergence_demo,
    linf_escape,
    linf_risk_bound,
    lp_escape,
    lp_escape_limit,
    step_density_approx,
)
from .kusuoka import (
    KusuokaMeasure,
    SpectrumSet,
    load_measure,
    measure_from_dict,
    measure_to_dict,
    mixture_risk,
    mu_from_sigma,
    set_norm,
    sigma_from_mu,
    sup_risk,
)
from .risk import (
    RiskReport,
    avar,
    representation_sup_check,
    semideviation,
    sigma_norm,
    sigma_norm_via_cdf,
    spectral_risk,
    spectral_risk_via_cdf,
)
from .spectrum import (
    AvarSpectrum,
    GeneralSpectrum,
    PowerSqrtSpectrum,
    Spectrum,
    StepSpectrum,
    load_spectrum,
    spectrum_from_dict,
    step_approx,
)
from .stepdist import (
    InputFormatError,
    PairedSample,
    StepQuantile,
    comonotone_pair,
    read_samples_csv,
)
from .verify import run_suite

__version__ = "0.1.0"

__all__ = [
    "AvarSpectrum",
    "DivergenceReport",
    "DominanceCertificate",
    "DualNorm",
    "EmbeddingConstant",
    "GeneralSpectrum",
    "InputFormatError",
    "KusuokaMeasure",
    "LinfEscape",
    "LpEscape",
    "PairedSample",
    "PowerSqrtSpectrum",
    "RiskReport",
    "SandwichReport",
    "Spectrum",
    "SpectrumSet",
    "StepQuantile",
    "StepSpectrum",
    "avar",
    "avar_sandwich_check",
    "comonotone_pair",
    "comparability_constant",
    "dominates",
    "dual_norm",
    "hahn_banach_witness",
    "heavy_tail_quantile",
    "identity_norm",
    "indicator_dual_norm",
    "l1_divergence_demo",
    "linf_escape",
    "linf_risk_bound",
    "load_measure",
    "load_spectrum",
    "lp_escape",
    "lp_escape_limit",
    "measure_from_dict",
    "measure_to_dict",
    "mixture_risk",
    "mu_from_sigma",
    "pairing",
    "quantile_density_ratio_bound",
    "read_samples_csv",
    "representation_sup_check",
    "run_suite",
    "semideviation",
    "set_norm",
    "sigma_from_mu",
    "sigma_norm",
    "sigma_norm_via_cdf",
    "sharpness_witness",
    "spectral_risk",
    "spectral_risk_via_cdf",
    "spectrum_from_dict",
    "step_approx",
    "step_density_approx",
    "sup_risk",
]
