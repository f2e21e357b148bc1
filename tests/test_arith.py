import pytest

from thetaforms.arith import factorize, jacobi


@pytest.mark.parametrize("call, message", [
    (lambda: jacobi(3, 4),
     "Jacobi symbol requires an odd positive lower argument"),
    (lambda: factorize(0), "factorize expects a positive integer"),
], ids=["jacobi", "factorize"])
def test_refusal(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
