"""The README's documented library usage runs against the package as it is."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_snippet_runs():
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, f"{README}:Library", "exec"), namespace)
    assert len(namespace["choices"]) == 600
    assert namespace["winners"].tolist()[0] in range(3)
    assert namespace["rejected"].shape == (1, 2)
    assert 0.0 <= namespace["est"].e_hat <= 1.0
