import lcsampler


def test_every_exported_name_resolves():
    missing = [name for name in lcsampler.__all__ if not hasattr(lcsampler, name)]
    assert missing == []
