"""The single homes of the design, read from the package source: the
Fourier format lives in spectral alone, and a preconditioner is built on the
spectrum it applies through."""

import ast
import pathlib

import gpesolve

SRC = pathlib.Path(gpesolve.__file__).parent


def dotted(node):
    """'a.b.c' for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id] + parts[::-1])


def numpy_fft_references(tree):
    """Line numbers where a module names numpy.fft, through an attribute or an import."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name = dotted(node)
            if name in ("np.fft", "numpy.fft"):
                lines.append(node.lineno)
        elif isinstance(node, ast.Import):
            if any(a.name.startswith("numpy.fft") for a in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith("numpy.fft") or (
                    node.module == "numpy" and any(a.name == "fft" for a in node.names)):
                lines.append(node.lineno)
    return lines


def class_def(tree, name):
    return next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == name)


def test_one_home_for_the_fourier_format():
    modules = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert numpy_fft_references(modules["spectral.py"])  # the search finds what it looks for
    faults = []
    for name, tree in modules.items():
        if name != "spectral.py":
            faults += [f"{name}:{line} references numpy.fft"
                       for line in numpy_fft_references(tree)]
    grid = class_def(modules["spectral.py"], "Grid")
    faults += [f"Grid defines the transform {n.name}" for n in grid.body
               if isinstance(n, ast.FunctionDef) and "fft" in n.name]
    pre = class_def(modules["precond.py"], "Preconditioner")
    faults += [f"Preconditioner has the field {n.target.id}" for n in pre.body
               if isinstance(n, ast.AnnAssign) and n.target.id in ("grid", "real")]
    faults += ["precond defines build" for n in modules["precond.py"].body
               if isinstance(n, ast.FunctionDef) and n.name == "build"]
    assert faults == []
