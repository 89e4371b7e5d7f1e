"""Single-site mutation check: which one-token changes of named code do named tests miss?

Usage (from the checkout's root):

    python tests/tools/mutate.py TARGET [TARGET ...] --tests TEST_FILE [TEST_FILE ...]

A TARGET is a module of the package and a function or class in it, such as
tables.instantiate, gates.bhk_gate or pipeline.ParamCheck (every method of
the class). Each mutant changes one site of one target: a comparison
operator (its negation, and for an ordering its boundary, < to <= and so
on), an arithmetic or bitwise operator, or an int constant (n to n + 1).
The mutant is written into a temporary copy of src/, and the named test
files run against it with `pytest -x -q`; a mutant whose run passes
survives. Before a target's mutants, the tests run once on the copy with
the target rewritten unchanged (ast.unparse drops its comments), and must
pass, so a failure is the mutant's doing. The survivors are printed, one a line,
and the exit code is 0 whether or not any survive.

Pytest does not collect this file, and nothing runs it automatically: it
takes about two seconds a mutant.
"""
import argparse
import ast
import copy
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = "dtgcert"

#: The negation of each comparison operator.
NEGATED = {
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In,
}

#: The same ordering with its boundary moved.
BOUNDARY = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}

#: One replacement for each arithmetic or bitwise operator.
ARITHMETIC = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult, ast.Div: ast.Mult,
    ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult, ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd,
}


def find(tree: ast.Module, qualname: str) -> ast.AST:
    """The function or class statement named by a dotted qualname in the module."""
    node = tree
    for name in qualname.split("."):
        node = next(
            (s for s in node.body if isinstance(s, (ast.FunctionDef, ast.ClassDef)) and s.name == name), None
        )
        if node is None:
            raise SystemExit(f"no {qualname} in the module")
    return node


def mutations(target: ast.AST):
    """(position in ast.walk order, description, function that mutates the node there in place) per site."""
    for pos, node in enumerate(ast.walk(target)):
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                for table in (NEGATED, BOUNDARY):
                    new = table.get(type(op))
                    if new is not None:
                        yield pos, f"{type(op).__name__} -> {new.__name__} (op {i})", replace_op(i, new)
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in ARITHMETIC:
            new = ARITHMETIC[type(node.op)]
            yield pos, f"{type(node.op).__name__} -> {new.__name__}", lambda n, new=new: setattr(n, "op", new())
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            yield pos, f"{node.value} -> {node.value + 1}", lambda n: setattr(n, "value", n.value + 1)


def replace_op(i, new):
    """A function that makes the i-th operator of a Compare node a new one."""

    def mutate(node):
        node.ops[i] = new()

    return mutate


def spliced(source: str, target: ast.AST, replacement: ast.AST) -> str:
    """The module source with the target's lines, decorators included, replaced by the unparsed replacement."""
    lines = source.splitlines(keepends=True)
    first = min([target.lineno] + [d.lineno for d in target.decorator_list]) - 1
    indent = " " * target.col_offset
    body = "".join(indent + line + "\n" if line else "\n" for line in ast.unparse(replacement).split("\n"))
    return "".join(lines[:first]) + body + "".join(lines[target.end_lineno :])


def passes(src: Path, tests: list[str]) -> bool:
    """Whether the test files pass against the package in src."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=600).returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("targets", nargs="+", metavar="TARGET", help="module.qualname, e.g. gates.bhk_gate")
    parser.add_argument("--tests", nargs="+", required=True, metavar="TEST_FILE", help="test files to run")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        total, survivors = 0, []
        for target in args.targets:
            module, _, qualname = target.partition(".")
            path = src / PACKAGE / f"{module}.py"
            source = path.read_text()
            node = find(ast.parse(source), qualname)
            # the target rewritten unchanged: the baseline its mutants are judged against
            path.write_text(spliced(source, node, node))
            if not passes(src, args.tests):
                raise SystemExit(f"the tests fail on the unmutated copy of {target}")
            for pos, description, mutate in list(mutations(node)):
                mutant = copy.deepcopy(node)
                site = next(n for i, n in enumerate(ast.walk(mutant)) if i == pos)
                mutate(site)
                path.write_text(spliced(source, node, mutant))
                total += 1
                if passes(src, args.tests):
                    survivors.append(f"{target}:{site.lineno}: {description}")
                    print(f"survived {survivors[-1]}", flush=True)
            path.write_text(source)
        print(f"{len(survivors)} of {total} mutants survived")
        for line in survivors:
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
