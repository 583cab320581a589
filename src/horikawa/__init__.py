"""Exact divisor calculus on the low invariant lines of general type.

The package computes, in exact integer and rational arithmetic,
intersection theory on the plane, Hirzebruch surfaces and their blow-ups,
the numerical invariants of degree 2 and 3 cyclic covers, the component
structure of the moduli space on the line K^2 = 2*chi - 6, the
non-smoothable stable surfaces on the line K^2 = 2*chi - 5, and the
integer feasibility certificates backing the ampleness and nefness
claims of those constructions.
"""

from .catalog import (AdmissiblePair, AmplenessCertificate, CanonicalImages,
                      ComponentInfo, ConstructionRecipe, NefCertificate, StableConstruction,
                      admissible, ampleness_certificate, build_component_one,
                      build_component_two, build_stable, classify, epsilon_family,
                      nef_certificate, parity_discriminator, pick_parameters,
                      scroll_family_curve)
from .covers import (CanonicalMultiple, CoverSpec, InvariantReport, ScrollCurve,
                     classify_germ, cover_invariants, cyclic_shift_invariant,
                     derive_root, eigensheaves, scroll_class, t1_scaling_invariant)
from .lattice import (BlowUp, DivisorClass, Hirzebruch, ProjectivePlane,
                      SectionCount, SurfaceMismatchError, SurfaceModel, blow_up,
                      canonical_class, h0, picard_rank, pullback)
from .stable import (SingularityLedger, StableSurfaceRecord, contract_minus3,
                     h0_2K, resolve_node_bookkeeping)

__version__ = "0.1.0"


def __getattr__(name: str):
    # verify loads on first use, so that importing the package does not load it
    if name == "run_verification":
        from .verify import run_verification
        return run_verification
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# the public names bound above, less the submodules the imports bind, and
# run_verification, which __getattr__ serves
__all__ = sorted([name for name, value in globals().items()
                  if not name.startswith("_") and not isinstance(value, type(lattice))]
                 + ["run_verification"])
