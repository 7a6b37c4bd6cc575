"""Source hygiene: every name a deltafuzz module imports is used there or
exported through its __all__; and `import deltafuzz` loads only what a
campaign runs."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from deltafuzz import get_driver

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "deltafuzz"


def unused_imports(path: Path, root: Path = PACKAGE) -> list[str]:
    """'file:line name' for each name path imports and never uses, the file
    relative to root."""
    tree = ast.parse(path.read_text(), str(path))
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    where = path.relative_to(root)
    return [f"{where}:{line} {name}" for name, line in imported.items() if name not in used]


def test_the_scan_flags_unused_and_spares_used_and_exported_names(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import os\nimport os.path as osp\nfrom sys import argv, path as search, version\n"
        "__all__ = ['argv']\nprint(osp.sep, version)\n"
    )
    assert unused_imports(probe, tmp_path) == ["probe.py:1 os", "probe.py:3 search"]


def test_no_module_imports_a_name_it_never_uses():
    files = sorted(PACKAGE.rglob("*.py"))
    assert files, f"no sources under {PACKAGE}"
    assert [entry for path in files for entry in unused_imports(path)] == []


# Run in a fresh interpreter: the test process has usually imported the
# oracle, hashlib and every target module already.
COLD_START = """
import json, sys
before = set(sys.modules)
import deltafuzz
seen = {"added": sorted(set(sys.modules) - before)}
seen["drivers"] = deltafuzz.driver_names()
seen["benchmarks"] = sorted(name for name in sys.modules if name.startswith("deltafuzz.benchmarks"))
import deltafuzz.cli
seen["cli"] = [name for name in ("deltafuzz.oracle", "statistics") if name in sys.modules]
seen["oracle"] = [deltafuzz.structured_max_delta.__module__, deltafuzz.oracle.__name__]
namespace = {}
exec("from deltafuzz import *", namespace)
seen["star"] = sorted(set(deltafuzz.__all__) - set(namespace))
seen["hashlib_before_login"] = "hashlib" in sys.modules
traced = deltafuzz.CoverageMap()
result = deltafuzz.run_driver(deltafuzz.get_driver("login_unsafe"), bytes(12), traced)
seen["login"] = [result.outcome, len(traced) > 0, "hashlib" in sys.modules]
print(json.dumps(seen))
"""

# a paced campaign that stops within the seed's deterministic stage, before
# its first havoc mutant: it must neither fork nor load what forking needs
STAGE_ONLY = """
import json, pathlib, sys, tempfile
import deltafuzz
with tempfile.TemporaryDirectory() as tmp:
    seeds = pathlib.Path(tmp, "seeds")
    seeds.mkdir()
    (seeds / "zero").write_bytes(bytes(48))
    config = deltafuzz.CampaignConfig(
        "pwcheck_unsafe", str(seeds), str(pathlib.Path(tmp, "out")), pace=1000, stop_on_delta=16
    )
    report = deltafuzz.run_campaign(config)
    loaded = [name for name in ("pickle", "signal") if name in sys.modules]
print(json.dumps([report.executions, report.stop_reason, loaded]))
"""

# the modules one lookup of the driver named by argv[1] adds
LOOKUP = """
import json, sys
import deltafuzz
before = set(sys.modules)
deltafuzz.get_driver(sys.argv[1])
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def fresh_interpreter(script: str, *args: str):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(done.stdout)


def test_import_loads_only_what_a_campaign_runs():
    seen = fresh_interpreter(COLD_START)
    unused = (
        "logging", "hashlib", "dataclasses", "inspect", "signal", "pickle", "deltafuzz.oracle"
    )
    assert [name for name in unused if name in seen["added"]] == []
    assert [name for name in seen["added"] if name.startswith("deltafuzz.benchmarks.")] == []
    assert len(seen["drivers"]) == 19
    assert seen["benchmarks"] == ["deltafuzz.benchmarks"]
    assert seen["cli"] == []
    assert seen["oracle"] == ["deltafuzz.oracle", "deltafuzz.oracle"]
    assert seen["star"] == []
    assert seen["hashlib_before_login"] is False
    assert seen["login"] == ["ok", True, True]
    assert fresh_interpreter(STAGE_ONLY) == [130, "delta-target-reached", []]
    for name in seen["drivers"]:
        module = get_driver(name).target.__module__
        shared = ["deltafuzz.benchmarks.support"] if module.endswith((".micro", ".modpow")) else []
        assert fresh_interpreter(LOOKUP, name) == sorted([module, *shared]), name
