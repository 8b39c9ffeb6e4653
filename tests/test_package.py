import gradimpact


def test_public_names_resolve_once():
    names = gradimpact.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(gradimpact, name), name
