"""Cold-start import contract: lazy package exports and per-command import sets.

Every package exports its public names through one ``_EXPORTS`` map
resolved on first access (:mod:`repro._lazy`).  The first half checks the
maps themselves — a typo in any of them fails here.  The second half is the
import-set gate: fresh interpreters run a command and report
``sys.modules``, so a module-level import that drags the service stack, the
worker pool or the mapping search into a command that never runs them
fails deterministically, with no timing involved.
"""

from __future__ import annotations

import doctest
import json
import os
import pkgutil
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import repro

SRC = Path(__file__).resolve().parents[1] / "src"

#: every package of the library, discovered from the source tree
PACKAGES = sorted(
    ["repro"] + [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
                 if info.ispkg])


def _exports(package: str) -> dict:
    return import_module(package)._EXPORTS


class TestLazyExports:
    def test_every_package_uses_the_export_map(self):
        assert {"repro", "repro.serve", "repro.sim.cycle"} <= set(PACKAGES)
        for package in PACKAGES:
            module = import_module(package)
            assert isinstance(getattr(module, "_EXPORTS", None), dict), package
            assert set(_exports(package)) <= set(module.__all__), package

    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_names_resolve_to_their_module_objects(self, package):
        module = import_module(package)
        exports = _exports(package)
        for name in module.__all__:
            value = getattr(module, name)
            if name not in exports:  # defined in the package itself
                continue
            source = import_module(exports[name])
            expected = (source if source.__name__ == f"{package}.{name}"
                        else getattr(source, name))
            assert value is expected, f"{package}.{name}"

    @pytest.mark.parametrize("package", PACKAGES)
    def test_dir_lists_every_public_name(self, package):
        module = import_module(package)
        assert set(module.__all__) <= set(dir(module))

    @pytest.mark.parametrize("package", PACKAGES)
    def test_unknown_name_is_an_attribute_error(self, package):
        module = import_module(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(module, "no_such_name")
        assert not hasattr(module, "no_such_name")

    def test_star_import_binds_all(self):
        namespace: dict = {}
        exec("from repro import *", namespace)
        assert set(repro.__all__) <= set(namespace)
        assert namespace["ChainNN"] is import_module("repro.core.accelerator").ChainNN

    def test_submodules_resolve_as_attributes(self):
        out, loaded = _modules_after(
            "import repro\n"
            "print(repro.sim.cycle.CycleAccurateChainSimulator.__name__)")
        assert out == ["CycleAccurateChainSimulator"]
        assert "repro.sim.cycle.engine" in loaded

    def test_package_quickstart_doctest(self):
        results = doctest.testmod(repro)
        assert results.attempted == 3
        assert results.failed == 0


def _modules_after(code: str) -> tuple:
    """Run ``code`` in a fresh interpreter; return (stdout lines before the
    module report, the set of modules loaded at the end)."""
    report = "import json, sys; print(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", f"{code}\n{report}"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    return lines[:-1], set(json.loads(lines[-1]))


class TestImportSets:
    def test_building_the_parser_loads_no_service_or_search_stack(self):
        _, loaded = _modules_after(
            "import repro.cli\nrepro.cli.build_parser()")
        forbidden = {
            "asyncio", "sqlite3", "multiprocessing", "ssl",
            "repro.serve.protocol", "repro.serve.server", "repro.runtime",
            "repro.engine.adapters", "repro.mapping.optimizer",
            "repro.analysis.batch", "repro.baselines", "repro.sim.cycle",
        }
        assert loaded & forbidden == set()

    def test_functional_verify_loads_only_what_it_runs(self):
        out, loaded = _modules_after(
            "from repro.cli import main\n"
            "assert main(['verify', '--sim', 'functional', "
            "'--network', 'tiny']) == 0")
        assert "functional verification PASSED" in out[-1]
        forbidden = {
            "repro.engine", "repro.mapping", "repro.runtime", "repro.serve",
            "repro.baselines", "repro.energy", "repro.memory",
            "sqlite3", "asyncio",
        }
        assert loaded & forbidden == set()

    def test_engines_lists_every_builtin_without_the_service_stack(self):
        from repro.engine.registry import DEFAULT_ENGINES

        out, loaded = _modules_after(
            "from repro.cli import main\nassert main(['engines']) == 0")
        assert out == ["registered engines:"] + [
            f"  {name}" for name in sorted(DEFAULT_ENGINES)]
        assert len(DEFAULT_ENGINES) == 12
        assert loaded & {"asyncio", "sqlite3", "repro.engine.adapters"} == set()


def _all_modules() -> list:
    return sorted(info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
                  if info.name != "repro.__main__")


class TestForkSafety:
    def test_pool_registers_every_task_before_it_forks(self):
        """Pool workers fork from the parent and look tasks up by name in
        ``runtime.tasks.TASKS``: importing the pool module alone must
        register every task the whole library defines, or a worker forked
        before some lazy import would miss it."""
        out, _ = _modules_after(
            "import json\n"
            "import repro.runtime.pool\n"
            "from repro.runtime.tasks import TASKS\n"
            "print(json.dumps(sorted(TASKS)))")
        for name in _all_modules():
            import_module(name)
        from repro.runtime.tasks import TASKS

        assert json.loads(out[-1]) == sorted(TASKS)
        assert {"sweep.point", "map.search_layer"} <= set(TASKS)
