"""Symbolic and numeric verification that interleaved 2-block zeta values
are rational multiples of powers of pi.

The symbolic half expands symmetrized insertion sums into binary words,
applies the weight-graded derivations, and certifies that all terms cancel
pairwise under an offset-swapping involution on odd window encodings.  The
numeric half evaluates the same sums to high precision and reads the
rational coefficient of pi^weight back off the digits.
"""

from .words import (
    Composition,
    block_vector,
    blockvector_to_composition,
    blockvector_to_word,
    composition_to_word,
    format_vector,
    format_word,
    sign_of,
    weight_of,
)
from .coaction import dr_terms, pack
from .encodings import enumerate_odd_encodings, phi, quotient_of, subsequence_of
from .verifier import (
    CancellationCertificate,
    InsertionInstance,
    build_instance,
    expansion_residual,
    verify_instance,
)
from .numerics import (
    check_bbbl_family,
    check_bowman_bradley,
    check_cyclic_insertion,
    check_symmetric_sum,
    eval_mzv_fast,
    eval_mzv_series,
    reconstruct_rational,
)

__version__ = "0.1.0"

__all__ = [
    "CancellationCertificate",
    "Composition",
    "InsertionInstance",
    "block_vector",
    "blockvector_to_composition",
    "blockvector_to_word",
    "build_instance",
    "check_bbbl_family",
    "check_bowman_bradley",
    "check_cyclic_insertion",
    "check_symmetric_sum",
    "composition_to_word",
    "dr_terms",
    "enumerate_odd_encodings",
    "eval_mzv_fast",
    "eval_mzv_series",
    "expansion_residual",
    "format_vector",
    "format_word",
    "pack",
    "phi",
    "quotient_of",
    "reconstruct_rational",
    "sign_of",
    "subsequence_of",
    "verify_instance",
    "weight_of",
]
