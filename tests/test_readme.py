"""README's library sketch runs, and it names exactly the package's re-exports."""

import os
import re

import gadmm

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_library_sketch_runs_on_the_reexported_names():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        (sketch,) = re.findall(r"```python\n(.*?)```", fh.read(), flags=re.S)
    exec(compile(sketch, "README.md", "exec"), {})
    used = set(re.findall(r"\bgadmm\.(\w+)", sketch))
    assert sorted(gadmm.__all__) == sorted(used | {"CertificationError"})
