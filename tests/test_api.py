"""The public names and the demo scripts stay importable; one module knows rule styles."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import hvsinglet

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_exports_and_scripts_resolve():
    modules = [hvsinglet] + [importlib.import_module(f"hvsinglet.{m.name}")
                             for m in pkgutil.iter_modules(hvsinglet.__path__)]
    exported = [m for m in modules if hasattr(m, "__all__")]
    assert len(exported) >= 5
    missing = [f"{m.__name__}.{n}" for m in exported for n in m.__all__ if not hasattr(m, n)]
    assert missing == []

    scripts = sorted(SCRIPTS.glob("*.py"))
    assert scripts
    for path in scripts:
        spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)  # main() runs only as __main__
        assert callable(module.main), path.name


def test_only_models_reads_the_rule_style():
    # the other modules reach a rule through HiddenVariableModel's private members
    src = Path(hvsinglet.__file__).parent
    readers = {path.name: name for path in src.glob("*.py") if path.name != "models.py"
               for name in ("has_kernel", "kernel_rule", "table_rule")
               if name in path.read_text(encoding="utf-8")}
    assert readers == {}
