"""The package's failure rule: a refused argument raises ValueError, an
exceeded cap raises scalars.CapExceeded (a ValueError naming its bound),
and a failed identity raises AssertionError.  `cli.main` maps the first
two to exit 2 and lets the third escape with its traceback (exit 1)."""
import importlib
import inspect
import pkgutil

import pytest

import cherednik
from cherednik import scalars
from cherednik.dirac import GroupAlgebraClassFunction, casimir_scalar
from cherednik.groups import build_group, inner_product
from cherednik.modules import baby_verma, cell_multiplicity, standard_module


def test_the_package_defines_two_exception_classes():
    found = set()
    for info in pkgutil.iter_modules(cherednik.__path__):
        module = importlib.import_module(f"cherednik.{info.name}")
        for _, obj in inspect.getmembers(module, inspect.isclass):
            if (issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__):
                found.add(obj)
    assert found == {scalars.CapExceeded, scalars.NotRational}
    assert all(issubclass(cls, ValueError) for cls in found)


def test_a_cap_names_its_bound():
    err = scalars.CapExceeded("kernel window needs K >= 3", "K", 3)
    assert (str(err), err.bound, err.minimal) == (
        "kernel window needs K >= 3", "K", 3)
    assert scalars.CapExceeded("no split", "degree_cap").minimal is None


def _lookups(g):
    """Every entry point that takes an irrep label, given 'nope'."""
    return {
        "irrep": lambda: g.irrep("nope"),
        "dim_of": lambda: g.dim_of("nope"),
        "tensor_with_eps": lambda: g.tensor_with_eps("nope"),
        "inner_product": lambda: inner_product(g, g.character_table[0],
                                               "nope"),
        "casimir_scalar": lambda: casimir_scalar("nope", 1, g),
        "cell_multiplicity mu": lambda: cell_multiplicity(
            standard_module(g, "2x0", 1, K=0), 0, 0, "nope"),
        "standard_module": lambda: standard_module(g, "nope", 1, K=1),
        "baby_verma": lambda: baby_verma(g, "nope", 1),
    }


@pytest.mark.parametrize("entry", sorted(_lookups(build_group("B2"))))
def test_an_unknown_irrep_label_is_one_value_error(entry):
    with pytest.raises(ValueError) as err:
        _lookups(build_group("B2"))[entry]()
    assert type(err.value) is ValueError
    assert str(err.value) == "unknown irrep label 'nope' for B2"


def test_an_unknown_class_name_is_a_value_error():
    with pytest.raises(ValueError, match="unknown conjugacy class 'nope'"):
        GroupAlgebraClassFunction(build_group("B2"), {"nope": 1})
