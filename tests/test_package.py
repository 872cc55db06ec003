"""The package surface: each public name is listed once, by the layer that owns it."""

import contextlib
import inspect
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import freepacket
from freepacket import evolution, numerics, observables, packets

LAYERS = (evolution, numerics, observables, packets)
README = Path(__file__).resolve().parents[1] / "README.md"


def test_package_all_is_the_sorted_union_of_the_layers():
    union = {name for layer in LAYERS for name in layer.__all__}
    assert freepacket.__all__ == sorted(union)
    assert len(freepacket.__all__) == sum(len(layer.__all__) for layer in LAYERS)


@pytest.mark.parametrize("layer", LAYERS, ids=lambda layer: layer.__name__)
def test_each_layer_lists_only_what_it_defines(layer):
    for name in layer.__all__:
        obj = getattr(layer, name)
        assert inspect.isfunction(obj) or inspect.isclass(obj), name
        assert obj.__module__ == layer.__name__, name


@pytest.mark.parametrize("name", freepacket.__all__)
def test_top_level_names_are_the_layers_own_objects(name):
    (owner,) = [layer for layer in LAYERS if name in layer.__all__]
    assert getattr(freepacket, name) is getattr(owner, name)


def test_readme_library_example_runs():
    text = README.read_text()
    example = text.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", example, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 3
    for line in lines:
        _, measured, predicted = map(float, line.split())
        assert measured == pytest.approx(predicted, rel=1e-6)


def test_the_csv_renderer_is_loaded_by_the_first_csv_write():
    # its code and tables hold about 0.5 MB of resident memory, which a
    # process that imports the command line but writes no CSV does not need
    code = "import sys, freepacket.cli; print('freepacket._csvtext' in sys.modules)"
    paths = [str(README.parent / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert result.stdout.split() == ["False"]
