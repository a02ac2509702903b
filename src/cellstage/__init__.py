"""Motion-stage geometry and dynamics for robotic cell-injection rigs.

Calibrated stage/camera/image coordinate transforms, the 2-DOF motion-stage
equation of motion with closed-form and RK4 solutions, and a deterministic
property-check harness over all of it.
"""

from ._backend import kernel_backend
from .errors import DomainError, ParseError, SingularError, UnknownPropertyError
from .linalg2 import (
    SINGULAR_EPS,
    Mat2,
    Vec2,
    determinant,
    inverse2,
    mat_mul,
    mat_vec_mul,
)
from .frames import (
    Calibration,
    CameraPoint,
    ImagePoint,
    StagePoint,
    camera_to_image,
    display_resolution_matrix,
    displacement_vector,
    image_to_stage,
    rotation_matrix,
    stage_to_camera,
    stage_to_image,
    transformation_matrix,
)
from .dynamics import (
    MassParams,
    StageState,
    Trajectory,
    Wrench,
    ZERO_WRENCH,
    analytic_constant_input_solution,
    analytic_homogeneous_acceleration,
    analytic_homogeneous_solution,
    dynamics_residual,
    homogeneous_residual_maxnorm,
    image_dynamics_residual,
    inertia_matrix,
    mass_matrix,
    posit_table_matrix,
    posit_table_matrix_fin,
    simulate,
)
from .propcheck import (
    PropertyReport,
    check_theorem,
    format_report,
    run_all,
)
from .scenario import ScenarioConfig, parse_config, serialize_config

__version__ = "0.1.0"
