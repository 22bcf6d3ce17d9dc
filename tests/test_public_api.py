"""Public API surface tests: every exported name resolves and is documented."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.isa",
    "repro.workloads",
    "repro.dataflow",
    "repro.core",
    "repro.uarch",
    "repro.sim",
    "repro.analysis",
    "repro.harness",
]


@pytest.mark.parametrize("package", PACKAGES)
class TestExports:
    def test_imports(self, package):
        module = importlib.import_module(package)
        assert module is not None

    def test_all_names_resolve(self, package):
        module = importlib.import_module(package)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{package}.{name} missing"

    def test_module_docstring(self, package):
        module = importlib.import_module(package)
        assert module.__doc__, f"{package} lacks a docstring"


class TestPublicCallablesDocumented:
    @pytest.mark.parametrize("package", PACKAGES[1:])
    def test_exported_callables_have_docstrings(self, package):
        module = importlib.import_module(package)
        undocumented = []
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if callable(obj) and not isinstance(obj, type):
                if not getattr(obj, "__doc__", None):
                    undocumented.append(name)
        assert not undocumented, f"{package}: {undocumented}"

    @pytest.mark.parametrize("package", PACKAGES[1:])
    def test_exported_classes_have_docstrings(self, package):
        module = importlib.import_module(package)
        undocumented = []
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if isinstance(obj, type) and not obj.__doc__:
                undocumented.append(name)
        assert not undocumented, f"{package}: {undocumented}"


class TestVersion:
    def test_version_string(self):
        import repro

        assert repro.__version__.count(".") == 2


class TestDependencies:
    def test_experiments_and_service_import_without_numpy(self):
        """The package declares no runtime dependencies; importing the
        harness and the service must not pull NumPy in."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(src) + os.pathsep + env.get("PYTHONPATH", "")
        ).rstrip(os.pathsep)
        code = (
            "import sys, repro.harness.experiments, repro.service\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        )
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
