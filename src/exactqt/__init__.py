"""exactqt: exact-arithmetic quantum formalism over fields with involution.

The public names are loaded lazily (PEP 562): _HOME maps each name to the
submodule that defines it, and the first `exactqt.<name>` imports that
submodule and caches the value in this namespace.  So `import exactqt`
costs next to nothing, and a program loads only the layers it touches.
`__all__` is _HOME's names in sorted order, then `__version__`.
Submodules import as usual: `from exactqt import starfield`.
"""

from importlib import import_module as _import_module

_HOME = {
    **dict.fromkeys(("SCAN_LIMIT", "FixedPointReport", "ProjectivePoint", "SemilinearMap",
                     "fixed_points", "square_is_linear"), "autocode"),
    **dict.fromkeys(("BipartiteState", "NoCloningWitness", "is_product", "no_cloning_witness",
                     "tensor_op", "tensor_state"), "compose"),
    **dict.fromkeys(("EmbeddingCertificate", "FieldEmbedding", "build_embedding",
                     "extend_matrix", "extend_state"), "embed"),
    **dict.fromkeys(("DimensionMismatch", "EvenExtensionDegree", "ExactQTError",
                     "FieldMismatch", "ImproperField", "IsotropicVector", "NonSquare",
                     "NotHermitian", "NotHomogeneous", "NotUnitary", "ParseError", "WrongField",
                     "ZeroState"), "errors"),
    **dict.fromkeys(("EigenDecomposition", "EigenPair", "Matrix", "Polynomial", "StateVector",
                     "char_poly", "conj_transpose", "eigen_decompose", "herm_form",
                     "is_hermitian", "is_unitary", "null_space", "rank", "solve"), "forms"),
    **dict.fromkeys(("CurvesMeetReport", "SampleReport", "TernaryForm", "TowerVerdict",
                     "alpha_rename", "curves_meet", "eval_closure", "eval_finite",
                     "expand_literals", "free_variables", "lefschetz_sample", "parse_sentence",
                     "parse_ternary_polynomial", "pretty"), "lefschetz"),
    **dict.fromkeys(("MeasurementOutcome", "MeasurementReport", "Observable", "collapse",
                     "evolve", "make_observable", "measure", "probability_profile",
                     "projector_onto"), "qcore"),
    **dict.fromkeys(("fixed_pool", "norm_one_elements", "norm_split", "random_element",
                     "random_hermitian", "random_invertible", "random_matrix",
                     "random_observable_matrix", "random_semilinear", "random_state",
                     "random_unitary", "rotation_block"), "sampling"),
    **dict.fromkeys(("Element", "FieldDescriptor", "GaussianRationals", "PrimeField", "QuadExt",
                     "fixed_field_coordinates", "involute", "is_fixed", "make_field",
                     "parse_field"), "starfield"),
}

__version__ = "0.1.0"

__all__ = sorted(_HOME)
__all__.append("__version__")


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{home}", __name__), name)
    return value
