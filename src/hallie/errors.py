"""Exception hierarchy and warning types.

The three branches of :class:`HallieError` map onto the CLI exit codes:
``InputError`` -> 2, ``ResourceBound`` -> 3, ``VerificationError`` -> 1.
"""


class HallieError(Exception):
    """Base class for all errors raised by this package."""


class InputError(HallieError):
    """The input document or request is invalid or outside the supported class."""


class ParseError(InputError):
    """Malformed algebra document (bad JSON, unknown ids, broken paths)."""


class CyclicQuiver(InputError):
    """The quiver contains a directed cycle."""


class InadmissibleRelation(InputError):
    """A relation generator of length < 2 or a non-parallel commutativity pair."""


class IsProjective(InputError):
    """An almost split sequence was requested at a projective vertex."""


class NotFiniteType(InputError):
    """Reflection closure of the Cartan matrix did not terminate within bounds."""


class ResourceBound(HallieError):
    """A configured enumeration or size cap was exceeded."""


class NotRepresentationFinite(ResourceBound):
    """Knitting exceeded the vertex limit without closing up."""


class DecompositionBudgetExceeded(ResourceBound):
    """The walk of End that splits a module, or shows it indecomposable,
    passed its bound."""


class VerificationError(HallieError):
    """A runtime invariant that should hold for in-scope inputs failed."""


class EtaNotInjective(VerificationError):
    """An assembled left almost split map failed to be a monomorphism."""


class NotDirected(VerificationError):
    """No directed enumeration exists on the knitted quiver (or knitting
    produced structure impossible for a representation-directed algebra)."""


class FieldDependenceDetected(VerificationError):
    """Knitted quivers over different primes disagree."""


class NonUnitriangularHomMatrix(VerificationError):
    """A diagonal entry of the Hom matrix is not 1."""


class NegativeMultiplicity(VerificationError):
    """Module identification produced a negative or inconsistent multiplicity."""


class NonIntegralOrbitCount(VerificationError):
    """An orbit count was not divisible by the automorphism group order."""


class ExtDimensionMismatch(VerificationError):
    """Ext¹ computed from cocycles disagrees with the Hom matrix (dim ker δ
    against dim Hom) or, on a hereditary algebra, with the Euler form, or a
    nonzero extension class has the split middle term."""


class InconsistentCounts(VerificationError):
    """A held-out prime disagreed with the interpolated counting polynomial."""


class NonIntegralCoefficients(VerificationError):
    """Interpolation produced a non-integral coefficient."""


class NotClosedOnIndecomposables(VerificationError):
    """A commutator of basis elements is not supported on indecomposables."""


class NotClosed(HallieError):
    """A subspace tuple is not stable under the arrow maps.

    This is a control-flow signal for callers probing submodule candidates,
    not a verification failure.
    """


class NonSchurianWarning(UserWarning):
    """The algebra has more than one basis path between some pair of vertices."""
