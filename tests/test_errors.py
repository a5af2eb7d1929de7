import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import optbias
from optbias.errors import ConfigError, DataError, NumericalError, OptBiasError


def test_one_exception_class_per_exit_code():
    modules = [importlib.import_module(f"optbias.{m.name}")
               for m in pkgutil.iter_modules(optbias.__path__)]
    defined = {obj for mod in modules for _, obj in inspect.getmembers(mod, inspect.isclass)
               if issubclass(obj, BaseException) and obj.__module__ == mod.__name__}
    assert defined == {OptBiasError, ConfigError, NumericalError, DataError}
    assert set(OptBiasError.__subclasses__()) == {ConfigError, NumericalError, DataError}


def test_every_import_is_used():
    root = Path(__file__).resolve().parent.parent
    unused = []
    for path in sorted([*(root / "src" / "optbias").glob("*.py"), *(root / "tests").glob("*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"]
        for node in imports:
            for alias in node.names:
                # "import a.b" binds a; "import a as b" and "from a import b" bind b
                if (name := alias.asname or alias.name.split(".")[0]) not in used:
                    unused.append(f"{path.relative_to(root)}:{node.lineno} {name}")
    assert unused == []


def test_adam_state_is_made_only_by_the_two_training_loops():
    # every method trains through metatrain.finetune; meta-training is the other loop
    callers = set()
    for path in sorted((Path(__file__).resolve().parent.parent / "src" / "optbias").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "for_net"
                        and ast.unparse(node.func.value).endswith("AdamState")):
                    callers.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert callers == {"metatrain.meta_train", "metatrain.finetune"}


def _opens_for_writing(node) -> bool:
    if not (isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "open"):
        return False
    mode = node.args[1] if len(node.args) > 1 else next(
        (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
    return not isinstance(mode, ast.Constant) or bool(set(mode.value) & set("wax+"))


def test_only_dataio_imports_csv_or_opens_files_for_writing():
    # dataio owns every file format the package writes; every CSV goes through write_csv
    found = []
    for path in sorted((Path(__file__).resolve().parent.parent / "src" / "optbias").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            imports_csv = (isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names)
                           or isinstance(node, ast.ImportFrom) and node.module == "csv")
            if imports_csv or _opens_for_writing(node):
                found.append(f"{path.stem}:{node.lineno}")
    assert found and {f.split(":")[0] for f in found} == {"dataio"}
