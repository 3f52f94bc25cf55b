"""Numerical laboratory for Carleman-weight identities and stochastic wave experiments."""

__version__ = "0.1.0"

from .fields import (  # noqa: F401
    AnalyticFn,
    BrownianPath,
    Grid,
    Jet2,
    make_fn,
    make_grid,
    sample_brownian,
)
from .weights import (  # noqa: F401
    CarlemanFrame,
    DQuantities,
    WeightFamily,
    WeightParams,
    assumption_check,
    build_M,
    eval_D,
    eval_VN,
    eval_frame,
    psd_certificate,
)
from .identities import (  # noqa: F401
    CutoffSpec,
    IdentityReport,
    RegionSpec,
    conjugation_residual,
    identity_residual,
    inequality_gap,
    qv_check,
)
from .solver import (  # noqa: F401
    Coefficients,
    WaveState,
    manufactured_forcing,
    solve,
    step,
    total_energy,
)
from .propagation import (  # noqa: F401
    EnergyTrace,
    Mollifier,
    SupportSet,
    distance_to_set,
    local_energy,
    run_propagation,
)
from .cones import (  # noqa: F401
    ConeSpec,
    SweepState,
    c3_constant,
    membership,
    sweep_cover,
    vertex,
)
