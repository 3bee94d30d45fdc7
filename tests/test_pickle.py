import copy
import pickle

import pytest

from meromat import polymat, ratmat
from meromat.exactalg import QQ, GaussRat, Poly, RatFn
from meromat.holomat import QuasiPolyEntry, QuasiPolyMat
from meromat.linalg_exact import DenseMat
from meromat.polymat import PolyMat
from meromat.ratmat import Divisor, RatMat, RootHandle
from meromat.sysmat import Amd

Z = Poly.z()
ONE = Poly.one()

OBJECTS = {
    "GaussRat": GaussRat(QQ(1, 2), QQ(-3)),
    "Poly": Poly([QQ(2, 3), 0, QQ(-5, 4)]),
    "RatFn": RatFn(Z + ONE, Z * Z - 2),
    "QuasiPolyEntry": QuasiPolyEntry([(Z, 0), (ONE, QQ(1, 2))]),
    "PolyMat": PolyMat([[Z, ONE], [0, Z * Z]]),
    "PolyMat-0x3": PolyMat.zeros(0, 3),
    "RatMat": RatMat([[RatFn(ONE, Z), 0]]),
    "QuasiPolyMat": QuasiPolyMat([[QuasiPolyEntry([(Z, 1)])]]),
    "RootHandle-exact": RootHandle(exact=QQ(3, 2)),
    "RootHandle-numeric": RootHandle(approx=2 ** 0.5, factor=Z * Z - 2),
    "Divisor": Divisor(zeros=Z * Z, poles=Z - ONE),
    "Amd": Amd(A=PolyMat([[Z]]), B=PolyMat([[ONE]]), C=PolyMat([[ONE]]),
               D=PolyMat([[0]])),
}


@pytest.mark.parametrize("obj", OBJECTS.values(), ids=OBJECTS.keys())
def test_pickle_and_deepcopy_round_trip(obj):
    for copied in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
        assert type(copied) is type(obj)
        assert copied == obj
        if isinstance(obj, PolyMat):
            assert copied.shape == obj.shape


MATRICES = [name for name, obj in OBJECTS.items() if isinstance(obj, DenseMat)]


@pytest.mark.parametrize("name", MATRICES)
def test_kept_forms_are_not_copied(name):
    obj = OBJECTS[name]
    m = type(obj)(obj.entries, obj.cols)
    before = pickle.dumps(m)
    m.eval_many([0.5j])
    m.eval_pair_many([1.5])
    if isinstance(m, PolyMat):
        polymat.smith_form(m)
        polymat.nrank(m)
    if isinstance(m, RatMat):
        ratmat.smith_mcmillan(m)
    assert m._kept
    assert pickle.dumps(m) == before
    for copied in (pickle.loads(before), copy.deepcopy(m)):
        assert copied == m and hash(copied) == hash(m)
        assert copied._kept is None
