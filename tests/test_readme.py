"""The README's examples run as written, and the docs name the tree as it is."""

import re

from cellstage.scenario import parse_config

from conftest import REFERENCE_CONFIG, REPO_ROOT, SRC_DIR


def _blocks(language: str) -> list[str]:
    text = (REPO_ROOT / "README.md").read_text()
    return re.findall(rf"^```{language}\n(.*?)^```$", text, re.DOTALL | re.MULTILINE)


def test_every_config_example_is_the_reference_config():
    blocks = _blocks("ini")
    assert blocks
    for block in blocks:
        assert parse_config(block) == parse_config(REFERENCE_CONFIG.read_bytes())


def test_library_example_runs():
    (block,) = _blocks("python")
    exec(compile(block, "README.md", "exec"), {})


def test_layout_names_every_module():
    text = (REPO_ROOT / "README.md").read_text()
    (block,) = re.findall(r"^```\n(src/cellstage/\n.*?)^```$", text, re.DOTALL | re.MULTILINE)
    listed = set(re.findall(r"^  (\S+\.py) ", block, re.MULTILINE))
    modules = {path.name for path in (SRC_DIR / "cellstage").glob("*.py")}
    assert listed == modules


def test_ci_runs_the_tier1_line_on_the_python_floor():
    workflow = (REPO_ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    roadmap = (REPO_ROOT / "ROADMAP.md").read_text()
    (line,) = re.findall(r"^\*\*Tier-1 verify:\*\* `(.*)`$", roadmap, re.MULTILINE)
    assert f"run: {line}\n" in workflow
    pyproject = (REPO_ROOT / "pyproject.toml").read_text()
    (floor,) = re.findall(r'^requires-python = ">=(\S+)"$', pyproject, re.MULTILINE)
    (versions,) = re.findall(r"^ +python-version: \[(.*)\]$", workflow, re.MULTILINE)
    assert f'"{floor}"' in versions.split(", ")


def test_every_ci_job_has_a_timeout():
    workflow = (REPO_ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    # Each job is its name's line, two spaces in, and the deeper lines after it.
    jobs = re.findall(
        r"^  \S.*\n(?:(?:    .*)?\n)*", workflow.split("\njobs:\n", 1)[1], re.MULTILINE
    )
    assert jobs
    for job in jobs:
        (minutes,) = re.findall(r"^    timeout-minutes: (\d+)$", job, re.MULTILINE)
        assert int(minutes) > 0, job.splitlines()[0]
