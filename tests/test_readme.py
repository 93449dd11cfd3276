"""The README's library quick start runs as documented."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), 'README.md')


def test_quick_start_runs(capsys):
    with open(README) as handle:
        blocks = re.findall(r'^```python\n(.*?)^```$', handle.read(), re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], 'README.md', 'exec'), {})
    assert len(capsys.readouterr().out.splitlines()) == 4
