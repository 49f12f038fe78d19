import re
import types
from pathlib import Path

import levelpulse
from levelpulse import labeler, permutation, simulator, synthesizer, topology

LAYERS = (permutation, topology, labeler, synthesizer, simulator)


def test_package_reexports_exactly_each_layers_all():
    exported = {
        name
        for name, value in vars(levelpulse).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    public = {name: layer for layer in LAYERS for name in layer.__all__}
    assert exported == set(public)
    assert all(getattr(levelpulse, name) is getattr(layer, name) for name, layer in public.items())


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1]
    blocks = re.findall(r"```python\n(.*?)```", library, re.DOTALL)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert len(namespace["seq"]) == 8  # as its comment says
