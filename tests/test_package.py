import ast
import importlib
import pathlib
import pkgutil

import ineqlab

# parameters with defaults plus dataclass fields with defaults in src/ineqlab
SETTABLE_VALUES = 79


def test_every_exported_name_resolves():
    # a stale __all__ entry survives its deleted member until a star import
    for info in pkgutil.iter_modules(ineqlab.__path__):
        module = importlib.import_module(f"ineqlab.{info.name}")
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert not missing, (info.name, missing)


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _settable_values(root: pathlib.Path) -> int:
    total = 0
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                total += len(args.defaults)
                total += sum(d is not None for d in args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                total += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                             for s in node.body)
    return total


def test_settable_values_do_not_grow():
    # every default is a value some caller could set; one that no caller
    # sets is a knob to delete, not a feature
    count = _settable_values(pathlib.Path(ineqlab.__file__).parent)
    assert count <= SETTABLE_VALUES, (
        f"{count} settable values, bound {SETTABLE_VALUES}: raise the bound only "
        "with a CHANGES.md line that names the new option and the two non-test "
        "callers that need different values")
    assert count == SETTABLE_VALUES, (
        f"{count} settable values, fewer than the bound {SETTABLE_VALUES}: "
        "lower the bound to keep it tight")
