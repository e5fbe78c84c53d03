"""The public names and the demo scripts stay importable."""

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
