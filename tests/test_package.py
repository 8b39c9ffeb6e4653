import os
import subprocess
import sys
from pathlib import Path

import pytest

import gradimpact


def test_public_names_resolve_once():
    names = gradimpact.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(gradimpact, name), name


def test_a_bare_import_loads_neither_numpy_nor_a_submodule():
    # Public names resolve on first use, so a program pays only for the
    # modules whose names it reads.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH", "")) if p)
    code = (
        "import sys, gradimpact\n"
        "print(sorted(m for m in sys.modules"
        " if m == 'numpy' or m.startswith('gradimpact.')))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert done.stdout == "[]\n"


def test_names_resolve_from_their_modules():
    from gradimpact import semantics

    assert gradimpact.degrees is semantics.degrees
    assert set(gradimpact.__all__) <= set(dir(gradimpact))
    with pytest.raises(AttributeError):
        gradimpact.not_a_name


def test_a_sampled_shapley_session_leaves_numpy_random_unimported():
    # numpy.random costs a cold process about 10 ms to import; the sampler
    # draws its permutation keys from the standard library instead.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH", "")) if p)
    code = (
        "import sys\n"
        "from gradimpact import SemanticsSpec, ShapleyConfig, shapley_all\n"
        "from gradimpact.fixtures import showcase_af\n"
        "config = ShapleyConfig(exact_indegree_cap=0, sample_count=8)\n"
        "assert shapley_all(showcase_af(), SemanticsSpec('hbs'), config).mode == 'sampled'\n"
        "print('numpy.random' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert done.stdout == "False\n"
