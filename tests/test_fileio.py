"""Only ``crossadapt.fileio`` opens a file.  Every other module reads and
writes through it, so no read path skips its regular-file, size and
error-mapping checks, and no write skips the rename that makes it atomic."""

import ast
from pathlib import Path

import pytest

import crossadapt

PACKAGE = Path(crossadapt.__file__).resolve().parent
# methods that open a path or a descriptor, on any object: os.open, io.open, Path.open, ...
OPENING_METHODS = {"open", "fdopen", "read_text", "read_bytes", "write_text", "write_bytes", "tofile"}
NUMPY_FILE_CALLS = {"load", "save", "savez", "savez_compressed", "fromfile", "loadtxt", "savetxt",
                    "genfromtxt", "memmap"}


def file_calls(source: str):
    """``(line, call)`` for each call in ``source`` that opens a file
    itself, not through ``fileio``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            found.append((node.lineno, "open"))
        elif isinstance(func, ast.Attribute):
            owner = func.value.id if isinstance(func.value, ast.Name) else "..."
            if ((func.attr in OPENING_METHODS and owner != "fileio")
                    or (func.attr in NUMPY_FILE_CALLS and owner in ("np", "numpy"))):
                found.append((node.lineno, f"{owner}.{func.attr}"))
    return found


def test_only_fileio_opens_files():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "fileio.py" in modules and len(modules) > 2
    found = {p.name: file_calls(p.read_text(encoding="utf-8")) for p in modules if p.name != "fileio.py"}
    assert {name: calls for name, calls in found.items() if calls} == {}


@pytest.mark.parametrize("line", [
    "open(path, 'rb')", "os.open(path, os.O_RDONLY)", "io.open(path)", "os.fdopen(fd)", "path.open()",
    "Path(path).read_text(encoding='utf-8')", "path.read_bytes()", "path.write_text(text)",
    "Path(p).write_bytes(data)", "arr.tofile(fh)", "np.load(path)", "np.save(path, arr)",
    "numpy.fromfile(path)",
])
def test_the_guard_sees_each_way_to_open_a_file(line):
    assert file_calls(line) != []


def test_the_guard_passes_reads_through_fileio():
    assert file_calls("read_text(p, 'config'); fileio.read_text(p, 'report'); "
                      "CorpusManifest.load(p); yaml.safe_load(text)") == []
    assert file_calls((PACKAGE / "fileio.py").read_text(encoding="utf-8")) != []
