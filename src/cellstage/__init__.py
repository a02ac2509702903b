"""Motion-stage geometry and dynamics for robotic cell-injection rigs.

Calibrated stage/camera/image coordinate transforms, the 2-DOF motion-stage
equation of motion with closed-form and RK4 solutions, and a deterministic
property-check harness over all of it.

Importing the package loads none of its submodules. Each name below is
imported from its submodule on first use (PEP 562) and then kept in this
namespace, so a caller that maps points never loads the property harness.
"""

from importlib import import_module

#: Every exported name, by the submodule that defines it.
_EXPORTS = {
    "_backend": ("kernel_backend",),
    "errors": ("DomainError", "ParseError", "SingularError", "UnknownPropertyError"),
    "linalg2": (
        "SINGULAR_EPS",
        "Mat2",
        "Vec2",
        "determinant",
        "inverse2",
        "mat_mul",
        "mat_vec_mul",
    ),
    "frames": (
        "Calibration",
        "CameraPoint",
        "ImagePoint",
        "StagePoint",
        "camera_to_image",
        "display_resolution_matrix",
        "displacement_vector",
        "image_to_stage",
        "rotation_matrix",
        "stage_to_camera",
        "stage_to_image",
        "transformation_matrix",
    ),
    "dynamics": (
        "MassParams",
        "StageState",
        "Trajectory",
        "Wrench",
        "ZERO_WRENCH",
        "analytic_constant_input_solution",
        "analytic_homogeneous_acceleration",
        "analytic_homogeneous_solution",
        "dynamics_residual",
        "homogeneous_residual_maxnorm",
        "image_dynamics_residual",
        "inertia_matrix",
        "mass_matrix",
        "posit_table_matrix",
        "posit_table_matrix_fin",
        "simulate",
    ),
    "propcheck": ("PropertyReport", "check_theorem", "format_report", "run_all"),
    "scenario": ("ScenarioConfig", "parse_config", "serialize_config"),
}

_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)

__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _SOURCE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
