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


def test_pocketfft_gufuncs_named_in_spectral_only():
    # the 1D transforms call numpy's private pocketfft gufuncs: one module
    # depends on that private name
    naming = [path.name for path in sorted(SRC.glob("*.py"))
              if "_pocketfft" in path.read_text()]
    assert naming == ["spectral.py"]


REAL_SPELLINGS = ("np.vdot", "numpy.vdot", "np.linalg.norm", "numpy.linalg.norm")


def real_sum_spellings(tree):
    """(line, enclosing top-level function or class) of every spelling of a
    real inner product or norm other than spectral.rdot and l2_norm: np.vdot,
    np.linalg.norm, x.real.dot, x.imag.dot and their imports."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner_owner = owner
            if owner is None and isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner_owner = child.name
            if isinstance(child, ast.Attribute) and (
                    dotted(child) in REAL_SPELLINGS or (
                        child.attr == "dot" and isinstance(child.value, ast.Attribute)
                        and child.value.attr in ("real", "imag"))):
                found.append((child.lineno, owner))
            elif isinstance(child, ast.ImportFrom) and (
                    (child.module == "numpy" and any(a.name == "vdot" for a in child.names))
                    or (child.module == "numpy.linalg"
                        and any(a.name == "norm" for a in child.names))):
                found.append((child.lineno, owner))
            visit(child, inner_owner)

    visit(tree, None)
    return found


def test_one_home_for_the_real_inner_product():
    # Re<a, b> is spectral.rdot and ||a|| spectral.l2_norm, on the float64
    # view of a grid array; only they and the complex inner product name
    # the other spellings
    modules = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert [owner for _, owner in real_sum_spellings(modules["spectral.py"])] == ["inner"]
    assert real_sum_spellings(ast.parse("a.real.dot(b); np.linalg.norm(a)")) == [(1, None)] * 2
    faults = []
    for name, tree in modules.items():
        allowed = ("rdot", "l2_norm", "inner") if name == "spectral.py" else ()
        faults += [f"{name}:{line} spells a real inner product or norm"
                   for line, owner in real_sum_spellings(tree) if owner not in allowed]
    faults += ["classic defines _realify" for n in modules["classic.py"].body
               if isinstance(n, ast.FunctionDef) and n.name == "_realify"]
    engine = class_def(modules["optim.py"], "_Engine")
    faults += [f"_Engine defines {n.name}" for n in engine.body
               if isinstance(n, ast.FunctionDef) and n.name in ("_rdot", "_norm")]
    assert faults == []
