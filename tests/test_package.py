"""The `cellstage` namespace loads each submodule on first use.

`import cellstage` loads no submodule; reading an exported name imports the
one submodule that defines it and keeps the value in the package namespace.
"""

import ast
import importlib
import subprocess
import sys

import pytest

import cellstage

from conftest import REFERENCE_CONFIG, _cli_env, run_cli

#: Every name the package exports, by the submodule that defines it, as the
#: package imported them before they were loaded on first use.
EXPORTS = {
    "_backend": ["kernel_backend"],
    "errors": ["DomainError", "ParseError", "SingularError", "UnknownPropertyError"],
    "linalg2": [
        "SINGULAR_EPS", "Mat2", "Vec2", "determinant", "inverse2", "mat_mul",
        "mat_vec_mul",
    ],
    "frames": [
        "Calibration", "CameraPoint", "ImagePoint", "StagePoint", "camera_to_image",
        "display_resolution_matrix", "displacement_vector", "image_to_stage",
        "rotation_matrix", "stage_to_camera", "stage_to_image", "transformation_matrix",
    ],
    "dynamics": [
        "MassParams", "StageState", "Trajectory", "Wrench", "ZERO_WRENCH",
        "analytic_constant_input_solution", "analytic_homogeneous_acceleration",
        "analytic_homogeneous_solution", "dynamics_residual",
        "homogeneous_residual_maxnorm", "image_dynamics_residual", "inertia_matrix",
        "mass_matrix", "posit_table_matrix", "posit_table_matrix_fin", "simulate",
    ],
    "propcheck": ["PropertyReport", "check_theorem", "format_report", "run_all"],
    "scenario": ["ScenarioConfig", "parse_config", "serialize_config"],
}

EXPORTED = [(module, name) for module, names in EXPORTS.items() for name in names]


def loaded_after(code: str) -> list[str]:
    """The cellstage submodules a fresh interpreter holds after running code."""
    probe = (
        f"{code}\nimport sys\n"
        "print(sorted(m for m in sys.modules if m.startswith('cellstage.')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=_cli_env(),
        check=True,
    )
    return ast.literal_eval(result.stdout)


def test_import_loads_no_submodule():
    assert loaded_after("import cellstage") == []


def test_point_maps_and_config_parser_leave_the_harness_unloaded():
    loaded = loaded_after("import cellstage\ncellstage.StagePoint\ncellstage.parse_config")
    assert loaded == [
        "cellstage._backend",
        "cellstage.dynamics",
        "cellstage.errors",
        "cellstage.frames",
        "cellstage.linalg2",
        "cellstage.scenario",
    ]


@pytest.mark.parametrize("module, name", EXPORTED, ids=[name for _, name in EXPORTED])
def test_export_is_the_submodule_object(module, name):
    assert name in cellstage.__all__
    assert name in dir(cellstage)
    submodule = importlib.import_module(f"cellstage.{module}")
    assert getattr(cellstage, name) is getattr(submodule, name)
    # Kept in the namespace once read.
    assert vars(cellstage)[name] is getattr(submodule, name)


def test_all_is_the_export_list():
    assert sorted(cellstage.__all__) == sorted(name for _, name in EXPORTED)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from cellstage import *", namespace)
    for name in cellstage.__all__:
        assert namespace[name] is getattr(cellstage, name)


def test_dir_keeps_the_module_attributes():
    assert {"__version__", "__name__", "__getattr__"} <= set(dir(cellstage))
    assert dir(cellstage) == sorted(dir(cellstage))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError) as excinfo:
        cellstage.no_such_name
    assert str(excinfo.value) == "module 'cellstage' has no attribute 'no_such_name'"
    assert not hasattr(cellstage, "_no_such_private_name")


def test_submodules_still_import_through_the_package():
    from cellstage import cli

    assert cli is sys.modules["cellstage.cli"]
    assert cellstage.cli is cli


def test_python_m_cellstage_runs():
    result = run_cli("transform", "--config", str(REFERENCE_CONFIG), "--x", "1", "--y", "0.5")
    assert result.returncode == 0
    assert result.stdout.startswith("camera ")
