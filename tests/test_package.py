"""The package namespace: every exported name exists, once."""

import qcorr


def test_every_exported_name_resolves_once():
    assert len(qcorr.__all__) == len(set(qcorr.__all__))
    missing = [name for name in qcorr.__all__ if not hasattr(qcorr, name)]
    assert missing == []
    namespace = {}
    exec("from qcorr import *", namespace)
    assert set(qcorr.__all__) <= set(namespace)
