import importlib
import inspect
import pkgutil

import optbias
from optbias.errors import ConfigError, DataError, NumericalError, OptBiasError


def test_one_exception_class_per_exit_code():
    modules = [importlib.import_module(f"optbias.{m.name}")
               for m in pkgutil.iter_modules(optbias.__path__)]
    defined = {obj for mod in modules for _, obj in inspect.getmembers(mod, inspect.isclass)
               if issubclass(obj, BaseException) and obj.__module__ == mod.__name__}
    assert defined == {OptBiasError, ConfigError, NumericalError, DataError}
    assert set(OptBiasError.__subclasses__()) == {ConfigError, NumericalError, DataError}
