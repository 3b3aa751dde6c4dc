"""Every bnvc module imports, every name in its __all__ resolves, only the
modules that own a file format touch files, every bnvc callable that the
benchmark's tracer hooks exists, every console script that pyproject.toml
declares resolves, and tools/corpus.py still names its 48 streams."""

import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import pytest

import bnvc

MODULES = sorted(f"bnvc.{m.name}" for m in pkgutil.iter_modules(bnvc.__path__))


def test_modules_found():
    assert "bnvc.codec" in MODULES and "bnvc.tensor" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names {missing}, which the module does not define"


# the modules that read or write files, each the one home of its format:
# frameio (frame files) and model (weights files)
FILE_MODULES = {"frameio.py", "model.py"}
FILE_CALLS = re.compile(r"\bopen\(|\.(read_bytes|write_bytes|read_text|write_text)\b")


def test_file_formats_stay_in_their_modules():
    """A second module that reads or writes files starts a second home for a file format."""
    src = Path(bnvc.__file__).parent
    found = [
        f"{path.name}:{n}: {line.strip()}"
        for path in sorted(src.glob("*.py"))
        if path.name not in FILE_MODULES
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if FILE_CALLS.search(line)
    ]
    assert not found, f"file access outside {sorted(FILE_MODULES)}: {found}"


def test_traced_hooks_resolve(monkeypatch):
    """A renamed or removed hook target fails here, instead of silently
    dropping its layer's metrics from traced benchmark runs."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    tracing = importlib.import_module("codecbench.tracing")
    missing = [f"{layer}: {module}.{path}" for layer, module, path in tracing.HOOKS if tracing._resolve(module, path) is None]
    assert not missing, f"traced hooks name targets that do not exist: {missing}"


def test_console_scripts_resolve():
    """Every [project.scripts] entry names a callable that imports, so an
    installed script does not fail at start-up."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"].get("scripts", {})
    broken = []
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        try:
            ok = callable(getattr(importlib.import_module(module), attr))
        except (ImportError, AttributeError):
            ok = False
        if not ok:
            broken.append(f"{name} = {target}")
    assert not broken, f"pyproject.toml declares scripts whose targets do not resolve: {broken}"


def test_corpus_tool_names_its_streams(monkeypatch):
    """The byte corpus builds its inputs from bnvc and codecbench; a renamed
    name there fails here, not when two checkouts are next compared."""
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root))
    spec = importlib.util.spec_from_file_location("corpus", root / "tools" / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    names = [name for name, *_ in corpus.corpus()]
    assert len(set(names)) == len(names) == 48
