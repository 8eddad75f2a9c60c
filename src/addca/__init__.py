"""Decision procedures for linear and additive cellular automata over Z/mZ.

The package decides sensitivity, equicontinuity, injectivity, surjectivity,
and transitivity for linear CA on (Z/mZ)^n, reduces additive CA over a finite
abelian group to that linear case via primary decomposition and an embedding,
and exposes the underlying matrix machinery (Laurent-polynomial matrices,
division-free characteristic polynomials, power-orbit detection).
"""

from .additive_ca import (
    AbelianGroup,
    AdditiveCaRule,
    GroupEndomorphism,
    MalformedEndomorphismError,
    PrimeComponent,
    associated_lca,
    decide_properties,
    embed_config,
    prime_components,
    project_config,
    step_additive,
)
from .laurent import LaurentPoly, LaurentRing, laurent_ring
from .lca import (
    FiniteConfiguration,
    LcaRule,
    PropertyReport,
    analyze_rule,
    associated_matrix,
    decide_surjective,
    decide_transitive,
    render_trajectory,
    scalar_rule,
    simulate,
    step,
)
from .modring import (
    InvalidModulusError,
    Modulus,
    RingMismatchError,
    factorize,
)
from .polymat import (
    CharPoly,
    RingMatrix,
    char_poly,
    determinant,
    identity,
)
from .power_semigroup import (
    FinitenessVerdict,
    OrbitShape,
    decide_finite_powers,
    detect_orbit,
    divisibility_witness,
    sampled_degree_growth,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "AdditiveCaRule",
    "CharPoly",
    "FiniteConfiguration",
    "FinitenessVerdict",
    "GroupEndomorphism",
    "InvalidModulusError",
    "LaurentPoly",
    "LaurentRing",
    "LcaRule",
    "MalformedEndomorphismError",
    "Modulus",
    "OrbitShape",
    "PrimeComponent",
    "PropertyReport",
    "RingMatrix",
    "RingMismatchError",
    "analyze_rule",
    "associated_lca",
    "associated_matrix",
    "char_poly",
    "decide_finite_powers",
    "decide_properties",
    "decide_surjective",
    "decide_transitive",
    "determinant",
    "detect_orbit",
    "divisibility_witness",
    "embed_config",
    "factorize",
    "identity",
    "laurent_ring",
    "prime_components",
    "project_config",
    "render_trajectory",
    "sampled_degree_growth",
    "scalar_rule",
    "simulate",
    "step",
    "step_additive",
    "__version__",
]
