"""exactqt: exact-arithmetic quantum formalism over fields with involution."""

from types import ModuleType as _ModuleType

from .autocode import (
    SCAN_LIMIT,
    FixedPointReport,
    ProjectivePoint,
    SemilinearMap,
    fixed_points,
    square_is_linear,
)
from .compose import (
    BipartiteState,
    NoCloningWitness,
    is_product,
    no_cloning_witness,
    tensor_op,
    tensor_state,
)
from .embed import (
    EmbeddingCertificate,
    FieldEmbedding,
    build_embedding,
    extend_matrix,
    extend_state,
)
from .errors import (
    DimensionMismatch,
    EvenExtensionDegree,
    ExactQTError,
    FieldMismatch,
    ImproperField,
    IsotropicVector,
    NonSquare,
    NotHermitian,
    NotHomogeneous,
    NotUnitary,
    ParseError,
    WrongField,
    ZeroState,
)
from .forms import (
    EigenDecomposition,
    EigenPair,
    Matrix,
    Polynomial,
    StateVector,
    char_poly,
    conj_transpose,
    eigen_decompose,
    herm_form,
    is_hermitian,
    is_unitary,
    null_space,
    rank,
    solve,
)
from .lefschetz import (
    CurvesMeetReport,
    SampleReport,
    TernaryForm,
    TowerVerdict,
    alpha_rename,
    curves_meet,
    eval_closure,
    eval_finite,
    expand_literals,
    free_variables,
    lefschetz_sample,
    parse_sentence,
    parse_ternary_polynomial,
    pretty,
)
from .qcore import (
    MeasurementOutcome,
    MeasurementReport,
    Observable,
    collapse,
    evolve,
    make_observable,
    measure,
    probability_profile,
    projector_onto,
)
from .sampling import (
    fixed_pool,
    norm_one_elements,
    norm_split,
    random_element,
    random_hermitian,
    random_invertible,
    random_matrix,
    random_observable_matrix,
    random_semilinear,
    random_state,
    random_unitary,
    rotation_block,
)
from .starfield import (
    Element,
    FieldDescriptor,
    GaussianRationals,
    PrimeField,
    QuadExt,
    fixed_field_coordinates,
    involute,
    is_fixed,
    make_field,
    parse_field,
)

__version__ = "0.1.0"

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
__all__.append("__version__")
