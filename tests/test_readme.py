"""The README's library example (its first python block) runs as written.

It needs numpy only, and a numpy RuntimeWarning fails it.
"""

import re
import warnings
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    example = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    namespace = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        exec(compile(example, str(README), "exec"), namespace)
    # The example's gate discards some hypotheses, so the bound is not void.
    assert 0.0 < namespace["exact"] <= namespace["bound"]
