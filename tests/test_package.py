import patchmux


def test_every_exported_name_resolves():
    assert [name for name in patchmux.__all__ if not hasattr(patchmux, name)] == []
    assert len(set(patchmux.__all__)) == len(patchmux.__all__)
