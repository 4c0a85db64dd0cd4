"""hallie: bound quiver algebras, AR-quiver knitting, Hall polynomials and
the Lie structure constants they generate, over prime fields."""

from .algebra import AlgebraSpec, load_algebra, parse_algebra, projective_rep
from .hall import (ARFamily, HallConfig, HallPolynomial,
                   check_oracle_equivalence, hall_number_grass, hall_number_hom,
                   hall_numbers_ext, hall_numbers_grass, hall_numbers_hom)
from .knit import (ARQuiver, KnitConfig, ar_sequence, check_field_independence,
                   knit)
from .liealg import (GradedVector, LieTable, RootSystem, compare_with_root_system,
                     enumerate_module_classes, euler_lie_table, hall_lie_table,
                     hall_product, jacobi_check, positive_roots,
                     verify_isomorphism)
from .linalg import (FMatrix, PrimeField, enumerate_subspaces, gaussian_binomial,
                     rref, solve_nullspace)
from .reps import (MultiplicityVector, Representation, SubspaceTuple, aut_order,
                   check_relations, decompose, direct_sum, hom_space, identify,
                   simple_rep, sub_quotient)

__version__ = "0.1.0"


def example_algebra_path(name: str) -> str:
    """Filesystem path of a shipped example algebra (e.g. ``"a2"``)."""
    from importlib import resources

    candidate = resources.files("hallie").joinpath("data", f"{name}.json")
    if not candidate.is_file():
        raise FileNotFoundError(f"no shipped algebra named {name!r}")
    return str(candidate)


def example_algebra_names() -> list[str]:
    from importlib import resources

    data = resources.files("hallie").joinpath("data")
    return sorted(entry.name[:-5] for entry in data.iterdir()
                  if entry.name.endswith(".json"))
