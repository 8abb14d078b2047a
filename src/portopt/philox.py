"""numpy's Philox4x64-10 standard normals, computed in numpy arrays.

`standard_normals(keys, t_days)` gives, bit for bit, what numpy's
`Generator(bitgen).standard_normal(t_days)` draws from a Philox bit
generator with each key and counter 0, for all keys at once and without
importing numpy's random module. `estimation.perturb_returns` imports this
module at its first call.
"""

from __future__ import annotations

import binascii
import math

import numpy as np

# Philox4x64-10 as numpy runs it (numpy/random/src/philox/philox.h): each
# round's two multipliers, split into 32-bit halves for the 64x64 -> 128-bit
# product, and the Weyl constants added to the key between rounds.
_PHILOX_M = [(np.uint64(m), np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32))
             for m in (0xD2E7470EE14C6C93, 0xCA5A826395121157)]
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)


def _mulhilo(mult, a, hi, lo, t1, t2):
    """hi, lo = the high and low words of m * a, for mult = (m, its low and
    its high 32 bits); `a` and the temporaries t1, t2 are overwritten.
    lh + (ll >> 32) + (hl & mask) is at most 2**64 - 1, so the middle sum
    cannot wrap."""
    m, m_lo, m_hi = mult
    np.multiply(a, m, out=lo)
    np.bitwise_and(a, 0xFFFFFFFF, out=t1)  # a_lo
    np.right_shift(a, 32, out=a)  # a_hi
    np.multiply(t1, m_lo, out=t2)
    np.right_shift(t2, 32, out=t2)  # ll >> 32
    np.multiply(t1, m_hi, out=t1)
    np.add(t1, t2, out=t1)  # lh + (ll >> 32)
    np.multiply(a, m_lo, out=t2)  # hl
    np.multiply(a, m_hi, out=hi)  # hh
    np.bitwise_and(t2, 0xFFFFFFFF, out=a)
    np.add(t1, a, out=t1)  # the middle sum
    np.right_shift(t2, 32, out=t2)
    np.add(hi, t2, out=hi)
    np.right_shift(t1, 32, out=t1)
    np.add(hi, t1, out=hi)


def philox_words(keys: np.ndarray, blocks: int) -> np.ndarray:
    """The first 4 * blocks words of each key's Philox4x64-10 stream, one
    row per row of the n x 2 `keys`: block b is the cipher of the counter
    (b + 1, 0, 0, 0), as numpy increments its counter before each block."""
    n = len(keys)
    c0, c1, c2, c3, *spare = np.empty((10, n, blocks), dtype=np.uint64)
    c0[:] = np.arange(1, blocks + 1, dtype=np.uint64)
    c1[:] = c2[:] = c3[:] = 0
    key = keys.astype(np.uint64)  # a copy, bumped in place between rounds
    for round_ in range(10):
        if round_:
            key += _PHILOX_W
        hi0, lo0, hi1, lo1, t1, t2 = spare
        _mulhilo(_PHILOX_M[0], c0, hi0, lo0, t1, t2)
        _mulhilo(_PHILOX_M[1], c2, hi1, lo1, t1, t2)
        hi1 ^= c1
        hi1 ^= key[:, :1]
        hi0 ^= c3
        hi0 ^= key[:, 1:]
        spare = [c0, c1, c2, c3, t1, t2]
        c0, c1, c2, c3 = hi1, lo1, hi0, lo0
    return np.stack((c0, c1, c2, c3), axis=-1).reshape(n, 4 * blocks)


# numpy's ziggurat for the standard normal (random_standard_normal in
# numpy/random/src/distributions/distributions.c): the tail's start r and
# 1/r, and its 256-entry tables ki (uint64), wi and fi (float64), stored
# little-endian in that order. The tables are the local symbols ki_double,
# wi_double and fi_double of numpy's libnpyrandom.a.
_ZIG_R, _ZIG_INV_R = 3.654152885361009, 0.2736612373297583
_ZIG_TABLES = binascii.a2b_base64(
    "au8lgD3zDgAAAAAAAAAAAKjG+5i+CAwAQoG9+lSjDQDq7sF+9lEOAH730+lVsg4Aucp+gUvvDgCqRPoKRxkPABjL"
    "/2HtNw8AXCVhlUZPDwCWoxvkpWEPAKSWU3V6cA8AmkQo7LJ8DwDTV2MM8YYPAN4lg1emjw8A2tBNxySXDwAJ9dsH"
    "qZ0PAHT6gfVgow8A+Etb3m+oDwDcVNNg8awPAA+5GGf7sA8AxnRTjZ+0DwB3/mYj7LcPAA7loensug8A7QsEnau9"
    "DwBXbP9gMMAPAEiiNxCCwg8A0VvieqbEDwAx7nqXosYPAKSWKKl6yA8Ahd5LXjLKDwAaIwLpzMsPAMQ5+BJNzQ8A"
    "meyPTbXODwAwyR2/B9APAObE1k1G0Q8AUPTiqHLSDwAeyfBPjtMPAHi0kJma1A8AUw+SuJjVDwDsmY7AidYPADLo"
    "yKlu1w8A6Ah7VEjYDwCMLK2LF9kPANKtpwfd2Q8AjF4QcJnaDwAgLsBdTdsPAND8W1z52w8AfZq5653cDwCdchiB"
    "O90PAJAvNIjS3Q8AZJ82ZGPeDwBOUY1w7t4PAC60pgF03w8AQO2ZZfTfDwDyJLzkb+APAFiiJcLm4A8ATLgoPFnh"
    "DwCZP7yMx+EPAKoc2+kx4g8AkRvahZjiDwCGQbWP++IPAEqNVTNb4w8AKgDQmbfjDwB/rZ7pEOQPADR31EZn5A8A"
    "XAlM07rkDwAkldKuC+UPAHi8TvdZ5Q8AEhLkyKXlDwCJhhM+7+UPAHgQ2W825g8AeNXGdXvmDwCqER5mvuYPAPL0"
    "5VX/5g8AAqcAWT7nDwA5nj6Ce+cPAKJwcOO25w8AQ0J3jfDnDwCM8FOQKOgPADoXNfte6A8AZAiE3JPoDwC8zvBB"
    "x+gPAPZOfTj56A8AHZuHzCnpDwDqiNMJWekPAKKak/uG6Q8AZkhxrLPpDwDVtpQm3+kPAHzmq3MJ6g8ApGbxnDLq"
    "DwAslTKrWuoPABp01aaB6g8A8Bzel6fqDwAg2fOFzOoPADzmZXjw6g8AE+wvdhPrDwBKKv6FNesPALRiMa5W6w8A"
    "+oTi9HbrDwAUIOZflusPAHydz/S06w8A0En0uNLrDwA+Lm6x7+sPAOi9HuML7A8AFVqxUifsDwDTr50EQuwPAJbx"
    "Kf1b7A8A9O5sQHXsDwC0DFDSjewPABIfkbal7A8A/ifE8LzsDwAV+1SE0+wPALPIiHTp7A8At5F/xP7sDwAohTV3"
    "E+0PAANJhI8n7Q8ATC8kEDvtDwBuWK37Te0PAN3DmFRg7Q8A6E9BHXLtDwCCqeRXg+0PAMgspAaU7Q8ABLeFK6Tt"
    "DwC0anTIs+0PAFJmQd/C7Q8AUm6kcdHtDwDTijyB3+0PAICZkA/t7Q8AFNQPHvrtDwDESxKuBu4PAAZa2cAS7g8A"
    "4AaQVx7uDwAkZUtzKe4PALzkChU07g8APJu4PT7uDwD0ginuR+4PAIawHSdR7g8AQX9A6VnuDwAutCg1Yu4PAPGX"
    "WAtq7g8Aegc+bHHuDwCCezJYeO4PALoGe89+7g8AskpI0oTuDwBDY7Zgiu4PAFHIzHqP7g8A2iV+IJTuDwDqKahR"
    "mO4PAFxIEw6c7g8A9HNyVZ/uDwCuzGInou4PAKxCa4Ok7g8AcS38aKbuDwD61m7Xp+4PAAr6BM6o7g8AOzPoS6nu"
    "DwAQZClQqe4PAF4HwNmo7g8AVHaJ56fuDwAkHUh4pu4PAIOeooqk7g8A2uQiHaLuDwAkIDUun+4PAC6vJryb7g8A"
    "5PIkxZfuDwA6CjxHk+4PABZ1VUCO7g8Aepw2rojuDwD9PX+Ogu4PAIi4p9577g8A/zf/m3TuDwBevanDbO4PAH4A"
    "nlJk7g8AiCijRVvuDwC2V06ZUe4PAM8GAEpH7g8AUCzhUzzuDwDYKuCyMO4PAAWCrWIk7g8AWjy4XhfuDwBHFCqi"
    "Ce4PAMxJ4yf77Q8AbCF26uvtDwB+BCLk2+0PANM5zg7L7Q8A9CwEZLntDwDJOOncpu0PAI3pN3KT7Q8ANqg4HH/t"
    "DwArwLnSae0PAACuBo1T7Q8AIqTeQTztDwDYL2rnI+0PAETmL3MK7Q8ANP4H2u/sDwC4tw4Q1OwPALRulQi37A8A"
    "wTAStpjsDwB4qQ0KeewPAP4xD/VX7A8AYsmGZjXsDwA1s7RMEewPANBvjpTr6w8AkragKcTrDwDcDO71musPAEKF"
    "yeFv6w8Anh+t00LrDwBLLQuwE+sPAOkCGlni6g8AVyKZrq7qDwAm446NeOoPAOVz/c8/6g8A9tmNTATqDwA7Vi/W"
    "xekPAKRHqTuE6Q8AKEcdRz/pDwDWxXa99ugPAOboxF2q6A8A6rF64FnoDwBAqZD2BOgPAMAzgkir5w8ApWofdUzn"
    "DwACoioQ6OYPANirtqB95g8AfjA4nwzmDwBC9zhzlOUPAIByl3AU5Q8AWPQ21IvkDwA3Hv2/+eMPAJyx7jVd4w8A"
    "/uQvErXiDwBXVZkDAOIPABSDeII84Q8AsGfuxGjgDwCqcSuwgt8PAKr+fsWH3g8A/TvGCXXdDwATvynlRtwPAIIC"
    "Lvj42g8Adbqy4YXZDwAEz0jv5tcPAAtlva0T1g8AEvDiSQHUDwCsx7SnodEPAJ4fdgTizg8AshFe2KjLDwAiLc1u"
    "0scPAO0iHi8rww8AOrjAgWW9DwA0VADEBrYPAHQoKlhArA8AmEUBHpeeDwD8HaRI+okPACww8PfFZg8AShwzS1oa"
    "DwB52RV4O0nPPMb2/eMLjYs8tFssPK9QkjxhO0Q4uXyVPAynL+j8AZg8vNBMLgwjmjz3YTgvTQCcPHRydFovrJ08"
    "w9VMLUgynzytu44nMk2gPENdAjsF9aA8dzZBl6aSoTz1GnqPoieiPIDYYzgutaI89ZFXwD88ozwvsaLBnr2jPFWb"
    "/43vOaQ8p/49NruxpDx00xpidSWlPJbOB6eAlaU86n7ZzzECpjw9fKNh0mumPHAFAJKi0qY8pvhG09o2pzx3KrMQ"
    "rZinPEP1Rq1F+Kc8dwpDU8xVqDyadnueZLGoPJjPTqkuC6k86h4sgkdjqTxGxTiOybmpPCynpNzMDqo8Wc13bWdi"
    "qjwwFhBurbSqPJxsE22xBas8KXpCh4RVqzw6n1KONqSrPDKCvyrW8as8805Z+XA+rDxhOzKlE4qsPIsmcv7J1Kw8"
    "SLeADp8erTwQH+QpnWetPMO4IwDOr608U3bxqTr3rTz+7dK16z2uPABvejPpg648zoL5vTrJrjwmYvCE5w2vPIj2"
    "2FT2Ua88rteHnm2VrzysLvp9U9ivPOw0QuBWDbA8mo859UAusDz8pRae6k6wPBCgcltWb7A8C/RxkIaPsDwTYbyE"
    "fa+wPH/MS2Y9z7A8awgWS8jusDzuFZUyIA6xPL4PMQdHLbE8QZGOnz5MsTweIMS/CGuxPDTaeBqnibE8iG3uURuo"
    "sTzLKvj4ZsaxPC7U4JOL5LE8n6BAmYoCsjzpxsRyZSCyPB/D6X0dPrI8+2upDLRbsjx/0x1mKnmyPBvXGceBlrI8"
    "2i64YruzsjxTuOFi2NCyPI6py+jZ7bI810huDcEKszwwufThjiezPKFeJnBERLM81VLKuuJgszxqWAW+an2zPGSy"
    "sm/dmbM8Az24vzu2szzgHVaYhtKzPINact6+7rM8dJ7gceUKtDxddKYt+ya0PKQwPOgAQ7Q8XcfKc/detDw2w2ae"
    "33q0PC+PSDK6lrQ8XUEC9oeytDzcEbOsSc60PAWmOBYA6rQ8YlVe76sFtTxaiwryTSG1PE9matXmPLU8yLIbTndY"
    "tTx4X1UOAHS1PBSFDsaBj7U8WRskI/2qtTw9c33Rcsa1PNOML3vj4bU8OF6fyE/9tTzDH6NguBi2PKKwougdNLY8"
    "Cya3BIFPtjxylslX4mq2PDcxsYNChrY8sbJQKaKhtjy7Q7PoAb22PFLTKGFi2LY8VPhhMcTztjzraIv3Jw+3PMYU"
    "aVGOKrc83O5w3PdFtzwfc+U1ZWG3PEn07/rWfLc8k726yE2YtzwJFIs8yrO3PPsi2/NMz7c8595zjNbqtzwf6oak"
    "Zwa4PHaGyNoAIrg8FZ+JzqI9uDy99dEfTlm4PMV+em8Ddbg8LfdHX8OQuDxDwAWSjqy4PJwMoatlyLg8J2pEUUnk"
    "uDyPtXMpOgC5PEeDKNw4HLk8/ArvEkY4uTyKogN5YlS5PO7VcLuOcLk8MSouicuMuTy/mT+TGam5PCzZ1Yx5xbk8"
    "EXRvK+zhuTxK0vomcv65PJI2+TkMG7o8W8iiIbs3ujyIuwuef1S6PKSpSnJacbo8PTGgZEyOujwI8Z8+Vqu6PM71"
    "Ws14yLo8NrOL4bTlujwaocNPCwO7PFuYmvB8ILs8AAzgoAo+uzwDPc5BtVu7PCeJP7l9ebs8PPfl8WSXuzxuJYXb"
    "a7W7PKLALmuT07s8g66Bm9zxuzygFuxsSBC8PC168OXXLrw8HA1uE4xNvDwFh+wIZmy8PBem6+Bmi7w8q6I2vY+q"
    "vDyQ1jvH4cm8PDfgaDBe6bw8bo+LMgYJvTwg7zcQ2yi9PEfGMxXeSL08I/HnlhBpvTyl+9f0c4m9PHBuIJkJqr08"
    "Dkn8+NLKvTw3LlKV0eu9PBzSSfsGDb489kbqxHQuvjyI0cGZHFC+PCX+ly8Acr48Cr8qSyGUvjwIb/fAgba+PDqn"
    "EHYj2b48qewBYQj8vjwhU8KKMh+/PG1Ntw+kQr88aAHJIF9mvzyCl4kEZoq/PL8icRi7rr88hecv0mDTvzwL9hjB"
    "Wfi/PHWg00fUDsA8R8mPAqghwDyrAqmDqTTAPMf1Pk7aR8A8frOt9jtbwDxoJqcj0G7APBcuY4+YgsA8VKLoCJeW"
    "wDzEwHF1zarAPEjU7tE9v8A8MD2qNOrTwDyTZRHP1OjAPLafpu///cA8QXAgBG4TwTw1XbubISnBPG0JxGkdP8E8"
    "Oy5gSGRVwTzz7p07+WvBPGES0nTfgsE8rOtOVhqawTyOL393rbHBPJSmcamcycE8Oa7k++vhwTwB2eLCn/rBPIHM"
    "BJ28E8I87tNvekctwjwknKykRUfCPOBYdse8YcI8Llmo+rJ8wjx4DnfNLpjCPFIKKlM3tMI8l9uWMdTQwjz1eKmx"
    "De7CPO6uVtLsC8M8o6RoXnsqwzyjEq4FxEnDPECoM3rSacM8CkFWkrOKwzz6iK5wdazDPKYEF7Mnz8M8dfRgqtvy"
    "wzza5bmcpBfEPJReVBWYPcQ8FTqnRM5kxDy8Q5x1Yo3EPCdaa51zt8Q8AonNDSXjxDxBrOlTnxDFPEJ+OlIRQMU8"
    "G+RKqbFxxTzZjXGLwKXFPP7QOiSK3MU8TB6Gz2kWxjzqagB7zlPGPMPln75AlcY8MuIJjWvbxjw0el/wKCfHPHMG"
    "CVaVecc8jM7W9C3Uxzw08ikFAznIPBR8qr8Pq8g8lkRvlOAuyTyrV0AB7svJPFp3lHjcj8o8sf14OB+YyzwzrQmC"
    "tDvNPAAAAAAAAPA/h/B5yWpE7z8VqWxbVLfuP3fwJ+ARP+4/ld4Ep2/T7T/yvFcGknDtP9wZoXhJFO0/6y2nqDO9"
    "7D9/eKnOXmrsP+q67tkcG+w/gtzhTuvO6z9S9Y86ZYXrPxDdNII6Pus/ouhsPyr56j8EJXrx/rXqP+HJUNWLdOo/"
    "D6/1/ao06j/YH2XuO/bpP4EGJI0iuek/wXphV0Z96T9HehvCkULpP09xMb3xCOk/qArmT1XQ6D8C37pIrZjoP6y8"
    "N/zrYeg/bs9WDwUs6D/L4iBL7fbnP1honHeawuc/1bCgPAOP5z9W2HAHH1znPxJtP/TlKec/7nrqulD45j+JWmOe"
    "WMfmPyo7UV73luY/I+OSKidn5j8YDFWY4jfmP2UmgJgkCeY/av9Kb+ja5T+JXMisKa3lP4+NTCbkf+U/Rp6N8BNT"
    "5T/VbGVatSblP2e2IOjE+uQ/wE5JTz/P5D94UtxyIaTkPxJQ319oeeQ/eTZJShFP5D/jXzWKGSXkP4JbWJl+++M/"
    "ozGvED7S4z8OzWKmVanjP9UA2ivDgOM/6VD1i4RY4z81OnDJlzDjP+84ZP36COM/7jvqVazh4j9KldcUqrriPxXN"
    "k47yk+I/7QQFKYRt4j+E25BaXUfiP/L3L6l8IeI/IJaSqeD74T9pmVT+h9bhPxHRP1dxseE/UDybcJuM4T/aOYYS"
    "BWjhP5ypXhCtQ+E/OB8xSJIf4T8TWTKis/vgP6BCQRAQ2OA/rtlwjaa04D+BXZkddpHgPzY88Mx9buA/Lj+mr7xL"
    "4D8qgovhMSngP8TKuIXcBuA/ob17jHfJ3z/KAKmnnYXfP/N6L8spQt8/lY9+cRr/3j9UH70gbrzeP8XDTmojet4/"
    "hZtf6jg43j8JOnZHrfbdP7FWCzJ/td0/M94mZK103T+AEAKhNjTdP21brrQZ9Nw/SKjAc1W03D/H1wC76HTcP7gs"
    "HW/SNdw/F2phfBH32z+RbXHWpLjbPxsTB3iLets/yjGzYsQ82z9ShaGeTv/aP55aXzopwto/gNikSlOF2j9NwCDq"
    "y0jaPz6ERjmSDNo/35MeXqXQ2T/GwBiEBJXZP5Of4NuuWdk/F8szm6Me2T8V8bn84ePYP4iR3j9pqdg/tlqsqDhv"
    "2D/ZDap/TzXYPxHZuBGt+9c/sBT0r1DC1z/rUpKvOYnXP+2xx2lnUNc/TGGpO9kX1z+qTBKGjt/WPyHeiK2Gp9Y/"
    "4sslGsFv1j8V5Xs3PTjWP8jSgHT6ANY/RMJ2Q/jJ1T++7tYZNpPVPwABPXCzXNU/7TtTwm8m1T+Sbb+OavDUP6Kc"
    "EFejutQ/1GqtnxmF1D/+JMPvzE/UPxl6NdG8GtQ/29KO0Ojl0z+uQ/F8ULHTP3kTCGjzfNM/ntH5JdFI0z8v9lpN"
    "6RTTP2YHIXc74dI/3T+WPset0j8esU1BjHrSP4neFx+KR9I/nsz3ecAU0j8WgRj2LuLRP1DwwjnVr9E/6FRU7bJ9"
    "0T9n7jS7x0vRPyMkz08TGtE/xAmHWZXo0D/aQrKITbfQPzZDkI87htA/2elCIl9V0D9+dMf2tyTQP8WT34mL6M8/"
    "NTK4jBCIzz/SmOls/ifPP0ScyaRUyM4/3TwoshJpzj+EcUUWOArOPwqQx1XEq80/T1Gy+LZNzT/Mb16KD/DMP1Pf"
    "cZnNksw/R53Yt/A1zD+hGL56eNnLP6oxh3pkfcs/OtHMUrQhyz8HGFeiZ8bKP34mGQt+a8o/PX4tMvcQyj9a/tK/"
    "0rbJPyd8al8QXck/afp0v68DyT9bgZKRsKrIPziagYoSUsg/dXEfYtX5xz8jo2jT+KHHP6a1epx8Ssc/FkeWfmDz"
    "xj9c8iE+pJzGP5zxraJHRsY/+YP4dkrwxT9sHfOIrJrFPzVoyKltRcU/wR/jrY3wxD8tzvVsDJzEP9V1A8LpR8Q/"
    "rjFpiyX0wz/u1+iqv6DDP4irtAW4TcM/ZSp8hA77wj8aB3oTw6jCP7deg6LVVsI/NDwYJUYFwj9CfXWSFLTBP2Mt"
    "qOVAY8E/uW6iHcsSwT+6CVI9s8LAP4W/uEv5csA/Kn0GVJ0jwD8sImvLPqm/PxwOUin/C78/S6Wa8ntvvj+P6HZh"
    "tdO9P+WRvbmrOL0/CnQ7SV+evD8VEAto0AS8PzPi8nj/a7s/M/bK6ezTuj+GYuozmTy6PxlbndwEprk/q6CkdTAQ"
    "uT9SKL+dHHu4P9bvPgHK5rc/dhGqWjlTtz9MSmlza8C2PxhNhSRhLrY/pGZ0VxudtT+uK/oGmwy1PxMiG0DhfLQ/"
    "hpomI+/tsz9wPtnkxV+zPxExm89m0rI/kQ3dRNNFsj99iZe+DLqxP50X8tAUL7E/JZYVLO2ksD+X5DCelxuwPzVu"
    "bCssJq8/gVGyR9UWrj9i8a3+LgmtPywqKA8+/as/cF84kAfzqj9jVSn5kOqpP6u1aCrg46g/Hievd/vepz9k0Jiz"
    "6dumP9St8jyy2qU/XScRDl3bpD/L7pjO8t2jP5f0Peh84qI/vGofnwXpoT8RgJYumPGgP8SlGNeB+J8/dYyC2xoS"
    "nj8aCc2DGTCcP/jrIk6fUpo/CsEAttF5mD+Cvwv02qWWP2Sw+/Lq1pQ/E16rjTgNkz8SMGA0A0mRP0ndck8qFY8/"
    "rI9PJ42kiz94pI0NBEGIP+DPGkKW64Q/ki+VKZKlgT83aOz4YOF8P124DNmonnY//bGwAx+KcD9nsMFDn19lPw/3"
    "ubYFplQ/"
)
_ZIG_KI, _ZIG_WI, _ZIG_FI = (np.frombuffer(_ZIG_TABLES, dtype, 256, 2048 * i)
                             for i, dtype in enumerate(("<i8", "<f8", "<f8")))
# indexed by a word's low 9 bits, its layer and its sign: x = rabs * wi
_ZIG_KI, _ZIG_WI = np.concatenate((_ZIG_KI, _ZIG_KI)), np.concatenate((_ZIG_WI, -_ZIG_WI))


def buffer_words(t_days: int) -> int:
    """Words first drawn per row for t_days normals: the 1.02 * t_days a
    row takes on average, plus a margin that at most about 1 row in 10**4
    overruns (counted for 1 to 250 days), in whole Philox blocks."""
    return 4 * -(-(t_days + t_days // 32 + math.isqrt(t_days) + 2) // 4)


def standard_normals(keys: np.ndarray, t_days: int, words: int = 0) -> np.ndarray:
    """The first t_days standard normals numpy's `Generator.standard_normal`
    draws from each key's Philox stream, as an n x t_days array.

    Every word starts a draw unless an earlier rejected draw consumed it.
    The fast accept (|x| inside its layer's rectangle) runs on all words at
    once; one loop walks the ~1.5% of words it rejects in stream order,
    skips those already consumed, and runs the wedge test (one more word)
    or, in layer 0, the tail loop (two words a round) with `math.exp` and
    `math.log1p`, which call libm as numpy's C code does. A row whose
    `words` run out before t_days normals is drawn again at twice the
    length.
    """
    words = words or buffer_words(t_days)
    w = philox_words(keys, words // 4)
    signed = w.view(np.int64)  # the same bits, so j indexes the tables as it is
    j = signed & 0x1FF
    rabs = signed >> 9
    rabs &= 0xFFFFFFFFFFFFF
    # each table gathered in turn into the buffer that ends as z (j is in
    # range, so `clip` gathers unbuffered)
    z = np.empty(w.shape)
    ok = rabs < np.take(_ZIG_KI, j, out=z.view(np.int64), mode="clip")
    np.take(_ZIG_WI, j, out=z, mode="clip")
    z *= rabs
    del rabs
    flat_w, flat_z, flat_ok = w.ravel(), z.ravel(), ok.ravel()
    bad = np.flatnonzero(~flat_ok)
    # the wedge test's two sides at every rejected word, with the next word
    i = j.ravel()[bad] & 0xFF
    u = (flat_w[np.minimum(bad + 1, w.size - 1)] >> 11) * 2.0**-53
    wedge = ((_ZIG_FI[i - 1] - _ZIG_FI[i]) * u + _ZIG_FI[i]).tolist()
    exponent = (-0.5 * flat_z[bad] * flat_z[bad]).tolist()
    layers, keep, drop, cut = i.tolist(), [], [], []
    free = 0  # the first word no draw has consumed yet
    for k, p in enumerate(bad.tolist()):
        if p < free:
            continue
        end = p - p % words + words  # the end of p's row
        if layers[k]:
            if p + 1 == end:
                cut.append(p)
                continue
            free = p + 2
            drop.append(p + 1)
            if wedge[k] < math.exp(exponent[k]):
                keep.append(p)
            continue
        free = p + 1
        while free + 2 <= end:
            u1, u2 = ((int(flat_w[q]) >> 11) * 2.0**-53 for q in (free, free + 1))
            free += 2
            xx = -_ZIG_INV_R * math.log1p(-u1)
            yy = -math.log1p(-u2)
            if yy + yy > xx * xx:  # bit 8 of rabs signs the tail's normal
                flat_z[p] = -(_ZIG_R + xx) if int(flat_w[p]) >> 17 & 1 else _ZIG_R + xx
                keep.append(p)
                drop.extend(range(p + 1, free))
                break
        else:
            cut.append(p)
            free = end
    del w, signed, flat_w, j  # the words are spent: only z and ok are read on
    flat_ok[drop] = False
    flat_ok[keep] = True
    for p in cut:
        flat_ok[p:p - p % words + words] = False
    count = np.count_nonzero(ok, axis=1)
    take = (np.cumsum(count) - count)[:, None] + np.arange(t_days)
    # a row short of t_days reads on past its draws (clipped at the end)
    # and is drawn again
    normals = z[ok].take(take, mode="clip")
    short = count < t_days
    if short.any():
        normals[short] = standard_normals(keys[short], t_days, 2 * words)
    return normals
