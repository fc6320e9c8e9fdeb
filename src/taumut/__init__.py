"""Exact-arithmetic engine for support tau-tilting pairs, brick-labeled
exchange quivers, semibricks, two-term simple-minded collections, and
their Grothendieck-group invariants over bound quiver algebras."""

from .algebra import (
    Algebra,
    AlgebraSpec,
    Arrow,
    Quiver,
    build_algebra,
    normalize_relation,
)
from .errors import (
    ApproximationDichotomyError,
    CharacteristicError,
    CompletionError,
    DimensionMismatchError,
    FieldMismatchError,
    GuardExceededError,
    IncompleteExplorationError,
    IndeterminateDecompositionError,
    IntervalError,
    MutationError,
    NotABrickError,
    NotTauRigidError,
    SelfExtensionError,
    SpecError,
    TauTiltingInfiniteError,
    TaumutError,
)
from .grothendieck import (
    GrothendieckData,
    check_duality,
    duality_report,
    grothendieck_data,
)
from .linalg import QQ, Field, Mat, PrimeField
from .modules import (
    IsoRegistry,
    Module,
    ModuleHom,
    ar_translate,
    ar_translate_inverse,
    cokernel,
    decompose,
    direct_sum,
    ext1_dim,
    hom_basis,
    hom_dim,
    image,
    injective_module,
    is_brick,
    is_isomorphic,
    is_semibrick,
    is_tau_inverse_rigid,
    is_tau_rigid_pair,
    kernel,
    minimal_projective_presentation,
    projective_module,
    semibrick_socle,
    semibrick_top,
    simple_module,
    zero_module,
)
from .nakayama import (
    NakayamaShape,
    a_count,
    b_count,
    build_nakayama,
    count_semibricks_bruteforce,
    count_table,
    enumerate_bricks,
    interval_module,
    make_nakayama,
    uniserial_module,
    verify_symmetric_identities,
)
from .presets import build_preset, preset_spec
from .quotient import (
    CentralIdeal,
    central_ideal,
    is_central_radical,
    parse_element,
    quotient_algebra,
    verify_ejr,
)
from .smc import (
    TwoTermSMC,
    check_label_coincidence,
    check_smc_axioms,
    paired_columns,
    smc_left_mutate,
    smc_of_vertex,
)
from .tautilt import (
    ExchangeQuiver,
    SupportPair,
    bongartz_completion,
    explore,
    export_dot,
    export_records,
    initial_pair,
    kronecker_witness,
    left_mutate,
    pair_is_tau_rigid,
    restrict_quiver,
    semibrick_of,
)

__version__ = "1.0.0"
