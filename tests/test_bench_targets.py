"""The benchmark's counted wrappers name callables that exist, and the two
lattice entry points they wrap check their input."""

import importlib
import importlib.util
import pathlib

import pytest

from sdualkit.exactalg import integer_kernel, integer_rank

SPEC_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spec.py"


def _wrapped_targets():
    loader = importlib.util.spec_from_file_location("perfbench_spec", SPEC_PATH)
    spec = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(spec)
    return sorted(spec.WRAPPED.items())


@pytest.mark.parametrize("prefix, target", _wrapped_targets())
def test_wrapped_target_resolves_to_a_callable(prefix, target):
    module_name, attribute_path = target
    obj = importlib.import_module(module_name)
    for name in attribute_path.split("."):
        obj = getattr(obj, name)
    assert callable(obj), prefix


@pytest.mark.parametrize("function", [integer_kernel, integer_rank])
@pytest.mark.parametrize(
    "rows",
    [[[1, 2], [3]], [[1, 2], [3, 4, 5]], [[1, 2.0]], [[1, True]]],
    ids=["short row", "long row", "float entry", "bool entry"],
)
def test_lattice_entry_points_reject_bad_rows(function, rows):
    with pytest.raises(ValueError):
        function(rows, 2)
