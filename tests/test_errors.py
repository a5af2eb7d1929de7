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
