"""stabkit: exact computations with stability conditions.

Submodules:

* ``exact``   -- exact rationals, phases, quadratic surds, sqrt sums
* ``lattice`` -- the extended Neron-Severi lattice and its isometries
* ``k3``      -- K3 central charges, positivity guards, wall scans
* ``curve``   -- stability on the rank/degree lattice of a curve
* ``quiver``  -- representations of acyclic quivers over F_p
* ``heart``   -- HN/JH filtrations, torsion pairs, tilts, slicing metric
* ``gl``      -- the universal cover of GL+(2,R) and isometry actions
* ``report``  -- CSV/JSON/SVG emitters
* ``cli``     -- the `stabkit` command line tool
"""

from .exact import ExactnessError, PhaseValue, Quad, RatComplex, SqrtSum
from .lattice import (
    ComplexMukaiVector,
    DeltaBox,
    InputError,
    InvariantError,
    MukaiVector,
    NSLattice,
    enumerate_delta,
    exp_class,
    gamma_membership,
    is_mukai_isometry,
    mukai_pairing,
    orientation_component,
    p0_membership,
    positive_plane_check,
    reflection,
    tensor_line_bundle,
)
from .k3 import (
    AffinePath,
    K3CentralCharge,
    Wall,
    central_charge,
    discreteness_check,
    extract_omega_beta,
    heart_image_check,
    normalize_to_exp_form,
    phase,
    realpart_identity_check,
    spherical_guard,
    torsion_side,
    wall_scan,
)
from .curve import (
    CurveCharge,
    CurveClass,
    gl_orbit_decompose,
    hn_polygon,
    phase_order_check,
    phase_to_slope,
    slope_phase,
    z_standard,
)
from .quiver import Quiver, QuiverRep, SubobjectLattice, euler_pairing, hom_space
from .heart import (
    HeartCharge,
    deformation_test,
    hn_filtration,
    hn_oracle,
    hom_principles_check,
    is_semistable,
    jh_filtration,
    jh_oracle,
    local_finiteness_probe,
    mass,
    slicing_distance,
    slicing_hom_vanishing,
    stability_norm,
    tilt_heart_check,
    torsion_cut,
    torsion_pair_verify,
)
from .gl import (
    GLTildeElement,
    act_on_charge,
    act_on_heart_stability,
    aut_act,
    commute_check,
    compose,
    f_eval,
)

__version__ = "0.1.0"
