"""Explicit Runge-Kutta stepper of order 8 with 5th and 3rd order error
estimates (DOP853) for real first-order systems y' = fun(t, y).

The method and its step control are those of Hairer, Norsett and Wanner,
*Solving Ordinary Differential Equations I*, section II.5 (the initial
step from section II.4), in the form SciPy's ``DOP853`` gives them (BSD
license): the same coefficients, and the same numpy operations in the
same order, so that on the same right-hand side both step through the
same floats.  There is no maximum step and no dense output, and the
stepper holds ``fun`` as given, so it forms no reference cycle.
"""

import numpy as np

EPS = np.finfo(float).eps
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10
# the error estimate is of order 7, so errors scale as h ** 8
ERROR_EXPONENT = -1 / 8

C = np.array([
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
])
N_STAGES = len(C)


def _lower_triangle(rows):
    """The square matrix whose row s starts with rows[s], zeros after."""
    out = np.zeros((len(rows), len(rows)))
    for s, row in enumerate(rows):
        out[s, : len(row)] = row
    return out


# row s of A combines the stages before s; zeros are written out
A = _lower_triangle([
    [],
    [5.26001519587677318785587544488e-2],
    [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2],
    [2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2],
    [2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1],
    [3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1],
    [3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2],
    [3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3],
    [6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1],
    [4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2],
    [-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022],
    [2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1],
])

# weights of the order-8 solution
B = np.array([
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
    4.45031289275240888144113950566, 1.89151789931450038304281599044,
    -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2,
])

# error weights over the N_STAGES + 1 stages, the last one f(t + h, y_new)
E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1
E5 = np.array([
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
    -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
    0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
    0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1, 0.0,
])

TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, t_bound, f0, rtol, atol):
    """First step size from the sizes of y0, f0 and a trial Euler step
    (Hairer, Norsett and Wanner, section II.4)."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -ERROR_EXPONENT
    return min(100 * h0, h1, interval_length)


class DOP853:
    """Steps a real system y' = fun(t, y) forward from t0 to t_bound.

    ``fun(t, y)`` returns a float array of the shape of y.  Each ``step``
    makes one accepted step and sets ``status`` to "finished" once t
    reaches t_bound; if the step size falls below the spacing of floats
    at t, it returns a message and sets ``status`` to "failed".  ``t`` and
    ``y`` are the current point.  rtol must be at least 100 EPS, as the
    KZ transport checks; SciPy's DOP853 would raise a smaller one to it.
    """

    def __init__(self, fun, t0, y0, t_bound, rtol, atol):
        y = np.asarray(y0)
        if y.dtype.kind not in "biuf" or y.ndim != 1 or not y.size or not np.isfinite(y).all():
            raise ValueError("y0 must be a nonempty finite real vector")
        if not t_bound > t0:
            raise ValueError("t_bound must exceed t0")
        if not atol >= 0:
            raise ValueError("atol must be nonnegative")
        self.fun = fun
        self.t = t0
        self.y = y.astype(float, copy=False)
        self.t_bound = t_bound
        self.rtol = rtol
        self.atol = atol
        self.status = "running"
        self.f = fun(t0, self.y)
        self.h_abs = _initial_step(fun, t0, self.y, t_bound, self.f, rtol, atol)
        self.K = np.empty((N_STAGES + 1, self.y.size))

    def step(self):
        """One accepted step; None, or the failure message."""
        if self.status != "running":
            raise RuntimeError("the stepper has %s" % self.status)
        fun, t, y, K = self.fun, self.t, self.y, self.K
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = min_step if self.h_abs < min_step else self.h_abs
        rejected = False
        while True:
            # "not >=" also stops a nan step, which no comparison would
            if not h_abs >= min_step:
                self.status = "failed"
                return TOO_SMALL_STEP
            t_new = t + h_abs
            if t_new > self.t_bound:
                t_new = self.t_bound
            h = h_abs = t_new - t
            K[0] = self.f
            for s in range(1, N_STAGES):
                dy = np.dot(K[:s].T, A[s, :s]) * h
                K[s] = fun(t + C[s] * h, y + dy)
            y_new = y + h * np.dot(K[:-1].T, B)
            f_new = K[-1] = fun(t + h, y_new)
            scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
            err5_norm_2 = np.linalg.norm(np.dot(K.T, E5) / scale) ** 2
            err3_norm_2 = np.linalg.norm(np.dot(K.T, E3) / scale) ** 2
            if err5_norm_2 == 0 and err3_norm_2 == 0:
                error_norm = 0.0
            else:
                denom = err5_norm_2 + 0.01 * err3_norm_2
                error_norm = h * err5_norm_2 / np.sqrt(denom * len(scale))
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
        self.t, self.y, self.f = t_new, y_new, f_new
        self.h_abs = h_abs * factor
        if t_new >= self.t_bound:
            self.status = "finished"
        return None
