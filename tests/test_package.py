import hahnsl2


def test_every_exported_name_resolves():
    missing = [name for name in hahnsl2.__all__ if not hasattr(hahnsl2, name)]
    assert missing == []
    assert len(set(hahnsl2.__all__)) == len(hahnsl2.__all__)
