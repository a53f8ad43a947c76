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


def test_the_engine_keeps_its_direction():
    # direction leaves the search direction on the engine and accept reads
    # it there, with no record of its own between them; a transform is
    # charged as counter.count += n, with no second spelling
    modules = {name: ast.parse((SRC / name).read_text()) for name in ("optim.py", "spectral.py")}
    faults = [f"optim defines {n.name}" for n in modules["optim.py"].body
              if isinstance(n, ast.ClassDef) and n.name == "_Bundle"]
    accept = next(n for n in class_def(modules["optim.py"], "_Engine").body
                  if isinstance(n, ast.FunctionDef) and n.name == "accept")
    args = [a.arg for a in accept.args.args]
    if args != ["self", "theta"]:
        faults.append(f"_Engine.accept takes {args[1:]}")
    counter = class_def(modules["spectral.py"], "FFTCounter")
    faults += [f"FFTCounter defines {n.name}" for n in counter.body
               if isinstance(n, ast.FunctionDef) and n.name == "add"]
    assert faults == []


def test_one_entry_per_operation():
    # optim.solve is the one PG/PCG entry, the frozen Hamiltonian is a test
    # oracle, RunConfig writes no text, apply_pair runs its factors in one
    # loop and bench lists its suites once
    modules = {name: ast.parse((SRC / name).read_text())
               for name in ("optim.py", "model.py", "config.py", "precond.py", "bench.py")}

    def defined(name):
        """Every function, class and assigned name of a module, at any depth."""
        names = set()
        for n in ast.walk(modules[name]):
            if isinstance(n, (ast.FunctionDef, ast.ClassDef)):
                names.add(n.name)
            elif isinstance(n, ast.Assign):
                names.update(t.id for t in n.targets if isinstance(t, ast.Name))
        return names

    absent = {"optim.py": ("solve_pg", "solve_pcg", "_with_method"),
              "model.py": ("frozen_hamiltonian",),
              "config.py": ("format_config", "to_text"),
              "bench.py": ("_SUITE_FN",)}
    faults = [f"{name[:-3]} defines {n}" for name, names in absent.items()
              for n in names if n in defined(name)]
    apply_pair = next(n for n in class_def(modules["precond.py"], "Preconditioner").body
                      if isinstance(n, ast.FunctionDef) and n.name == "apply_pair")
    loops = sum(isinstance(n, ast.For) for n in ast.walk(apply_pair))
    if loops != 1:
        faults.append(f"Preconditioner.apply_pair holds {loops} for loops")
    assert faults == []
