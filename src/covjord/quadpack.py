"""Adaptive quadrature on a finite interval: QUADPACK's QAGS routine.

A transcription of `dqagse` (globally adaptive bisection driven by the
21-point Gauss-Kronrod rule `dqk21`, with the error list kept in order by
`dqpsrt` and Wynn's epsilon-algorithm `dqelg` extrapolating the sequence of
area approximations) from Piessens, de Doncker-Kapenga, Ueberhuber and
Kahaner, *QUADPACK* (Springer, 1983).  Every floating-point operation is
written in QUADPACK's order, so the value and the error estimate are the
same floats that QUADPACK (and so `scipy.integrate.quad`) returns:

- every sum is accumulated left to right, never by `sum()` or `math.fsum`
  (CPython 3.12's float `sum` is compensated);
- the machine constants are d1mach's, read from `sys.float_info`;
- the rule's nodes and weights are QUADPACK's decimal literals;
- the error flag `ier` steers the loop exactly as in `dqagse`.

The arrays keep QUADPACK's 1-based indices (slot 0 is unused), so each
line can be read against the Fortran.  Only the finite-interval,
unweighted case without break points is supported.
"""

from __future__ import annotations

import sys

_EPMACH = sys.float_info.epsilon  # d1mach(4), the largest relative spacing
_UFLOW = sys.float_info.min  # d1mach(1), the smallest positive normal
_OFLOW = sys.float_info.max  # d1mach(2), the largest double
_LIMEXP = 50  # size of the epsilon table before it is shifted

# dqk21: Kronrod abscissae (xgk), Kronrod weights (wgk), Gauss weights (wg).
# xgk(2), xgk(4), ... are the 10-point Gauss nodes; xgk(11) is the centre.
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980221863, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
)
_WGK_CENTRE = 0.149445554002916905664936468389821
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
# the Gauss points first, then the Kronrod-only points, as dqk21 visits them
_GAUSS = tuple((j, _XGK[j], _WGK[j], _WG[j // 2]) for j in (1, 3, 5, 7, 9))
_KRONROD = tuple((j, _XGK[j], _WGK[j]) for j in (0, 2, 4, 6, 8))


def quad(f, a, b, epsabs=1.49e-8, epsrel=1.49e-8, limit=50):
    """Integral of the float-valued f over [a, b] as (value, abserr), with
    the call shape and defaults of `scipy.integrate.quad`: the result aims
    at abserr <= max(epsabs, epsrel * |value|) within `limit` subintervals.
    When that is not reached the best estimate is returned as it stands;
    the error estimate says how good it is.  b < a gives minus the integral
    over [b, a]."""
    result, abserr, ier = _qagse(f, a, b, epsabs, epsrel, limit)
    if ier == 6:
        raise ValueError("invalid input: need limit >= 1, and epsabs > 0 or "
                         "epsrel >= max(50 * machine epsilon, 5e-29)")
    return result, abserr


def _qk21(f, a, b):
    """dqk21: (result, abserr, resabs, resasc) of the 21-point Kronrod rule
    on [a, b]; resabs integrates |f|, resasc |f - mean|."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    resg = 0.0
    fc = f(centr)
    resk = _WGK_CENTRE * fc
    resabs = abs(resk)
    fv1 = [0.0] * 10
    fv2 = [0.0] * 10
    for j, x, wk, wg in _GAUSS:
        absc = hlgth * x
        fval1 = fv1[j] = f(centr - absc)
        fval2 = fv2[j] = f(centr + absc)
        fsum = fval1 + fval2
        resg = resg + wg * fsum
        resk = resk + wk * fsum
        resabs = resabs + wk * (abs(fval1) + abs(fval2))
    for j, x, wk in _KRONROD:
        absc = hlgth * x
        fval1 = fv1[j] = f(centr - absc)
        fval2 = fv2[j] = f(centr + absc)
        fsum = fval1 + fval2
        resk = resk + wk * fsum
        resabs = resabs + wk * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK_CENTRE * abs(fc - reskh)
    for wk, fval1, fval2 in zip(_WGK, fv1, fv2):
        resasc = resasc + wk * (abs(fval1 - reskh) + abs(fval2 - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        # resasc * min(1, scale**1.5), without the pow (or its overflow) where the min is 1
        scale = 200.0 * abserr / resasc
        abserr = resasc * (scale ** 1.5 if scale < 1.0 else 1.0)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qagse(f, a, b, epsabs, epsrel, limit):
    """dqagse: (result, abserr, ier).  ier 0 is success; 1 the
    bisection limit; 2 round-off; 3 bad integrand behaviour at a point;
    4 the extrapolation did not converge; 5 probably divergent; 6 bad
    input.  The labels in the comments are dqagse's."""
    if limit < 1 or (epsabs <= 0.0 and epsrel < max(50.0 * _EPMACH, 0.5e-28)):
        return 0.0, 0.0, 6
    alist = [0.0] * (limit + 1)
    blist = [0.0] * (limit + 1)
    rlist = [0.0] * (limit + 1)
    elist = [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    rlist2 = [0.0] * 53  # the epsilon table, rlist2(1..52)
    res3la = [0.0] * 4
    alist[1] = a
    blist[1] = b

    # first approximation to the integral
    ier = 0
    ierro = 0
    result, abserr, defabs, resabs = _qk21(f, a, b)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    rlist[1] = result
    elist[1] = abserr
    iord[1] = 1
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, ier  # label 140

    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    iroff1 = iroff2 = iroff3 = 0
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPMACH) * defabs else -1
    small = erlarg = ertest = correc = 0.0

    exit_label = 100
    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, resabs, defab1 = _qk21(f, a1, b1)
        area2, error2, resabs, defab2 = _qk21(f, a2, b2)

        # improve the previous approximations and test for accuracy
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12) or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))

        # round-off, the subdivision limit, a bad point of the range
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4

        # append the new intervals, the one with the larger error in maxerr's slot
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            exit_label = 115
            break
        if ier != 0:
            break
        if last == 2:  # label 80
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # is the interval to be bisected next the smallest one?
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):  # label 40
            # the smallest interval has the largest error: before bisecting,
            # work down the larger intervals (erlarg) and extrapolate
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue
        # label 60: extrapolate
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if not (abseps >= abserr):
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        # label 70: prepare the bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    if exit_label == 100:  # label 100: the final result and error estimate
        if abserr == _OFLOW:
            exit_label = 115
        elif ier + ierro != 0:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                if abserr / abs(result) > errsum / abs(area):  # label 105
                    exit_label = 115
            elif abserr > errsum:
                exit_label = 115
            elif area == 0.0:
                exit_label = 130
    if exit_label == 100:  # label 110: test on divergence
        if not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
            if area == 0.0:  # result / area is +-inf, or nan when result is 0
                diverges = result != 0.0 or errsum > 0.0
            else:
                ratio = result / area
                diverges = 0.01 > ratio or ratio > 100.0 or errsum > abs(area)
            if diverges:
                ier = 6
    elif exit_label == 115:  # the sum over the subintervals
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    if ier > 2:  # label 130
        ier -= 1
    return result, abserr, ier


def _qpsrt(limit, last, maxerr, elist, iord, nrmax):
    """dqpsrt: keep iord(1..) in descending order of elist after interval
    `maxerr` was bisected into `maxerr` and `last`; returns the new maxerr,
    its error and nrmax."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        # only after a subdivision raised the error: move errmax up
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        # the number of entries kept in order shrinks near the limit
        jupbn = last
        if last > limit // 2 + 2:
            jupbn = limit + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        # insert errmax top-down, then errmin bottom-up
        for i in range(nrmax + 1, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                iord[i - 1] = maxerr  # label 60
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    k = i - 1
                iord[k + 1] = last
                break
            iord[i - 1] = isucc
        else:  # label 50
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]  # label 90
    return maxerr, elist[maxerr], nrmax


def _qelg(n, epstab, res3la, nres):
    """dqelg: one step of Wynn's epsilon-algorithm on epstab(1..n), the
    sequence of area approximations; returns (n, result, abserr, nres).
    The table and res3la (the last three results) are updated in place."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n >= 3:
        epstab[n + 2] = epstab[n]
        newelm = (n - 1) // 2
        epstab[n] = _OFLOW
        num = n
        k1 = n
        converged = False
        for i in range(1, newelm + 1):
            k2 = k1 - 1
            k3 = k1 - 2
            res = epstab[k1 + 2]
            e0 = epstab[k3]
            e1 = epstab[k2]
            e2 = res
            e1abs = abs(e1)
            delta2 = e2 - e1
            err2 = abs(delta2)
            tol2 = max(abs(e2), e1abs) * _EPMACH
            delta3 = e1 - e0
            err3 = abs(delta3)
            tol3 = max(e1abs, abs(e0)) * _EPMACH
            if not (err2 > tol2 or err3 > tol3):
                # e0, e1 and e2 agree to machine accuracy: converged
                result = res
                abserr = err2 + err3
                converged = True
                break
            e3 = epstab[k1]  # label 10
            epstab[k1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            tol1 = max(e1abs, abs(e3)) * _EPMACH
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1  # two close elements: cut the table here
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            epsinf = abs(ss * e1)
            if not (epsinf > 1e-4):
                n = i + i - 1  # irregular behaviour: cut the table here
                break
            res = e1 + 1.0 / ss  # label 30: a new element
            epstab[k1] = res
            k1 = k1 - 2
            error = err2 + abs(res - e2) + err3
            if not (error > abserr):
                abserr = error
                result = res
        if not converged:
            # label 50: shift the table
            if n == _LIMEXP:
                n = 2 * (_LIMEXP // 2) - 1
            ib = 2 if num % 2 == 0 else 1
            for _ in range(newelm + 1):
                epstab[ib] = epstab[ib + 2]
                ib += 2
            if num != n:
                indx = num - n + 1
                for i in range(1, n + 1):
                    epstab[i] = epstab[indx]
                    indx += 1
            if nres < 4:
                res3la[nres] = result
                abserr = _OFLOW
            else:  # label 90: the error estimate from the last three results
                abserr = (abs(result - res3la[3]) + abs(result - res3la[2])
                          + abs(result - res3la[1]))
                res3la[1] = res3la[2]
                res3la[2] = res3la[3]
                res3la[3] = result
    abserr = max(abserr, 5.0 * _EPMACH * abs(result))  # label 100
    return n, result, abserr, nres
