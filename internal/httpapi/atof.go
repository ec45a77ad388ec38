package httpapi

import (
	"math"
	"math/bits"
)

// pow10 holds the powers of ten a uint64 holds exactly.
var pow10 = [...]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// atof converts the JSON number s to the nearest float64, ties to even —
// the one float strconv.ParseFloat returns — for the shape coordinates
// take: at most 19 significant digits and a decimal exponent within ±19.
// There the exact product or quotient of two uint64s fits 128 bits, so it
// rounds once and exactly. ok is false for any other number, which the
// caller hands to strconv.ParseFloat.
func atof(s []byte) (f float64, ok bool) {
	var m uint64
	neg, digits, exp, i := s[0] == '-', 0, 0, 0
	if neg {
		i++
	}
	for frac := false; i < len(s); i++ {
		c := s[i]
		if c == '.' {
			frac = true
			continue
		}
		if !isDigit(c) {
			break
		}
		if frac {
			exp--
		}
		if m == 0 && c == '0' {
			continue // a leading zero is not a significant digit
		}
		if digits++; digits > 19 {
			return 0, false
		}
		m = m*10 + uint64(c-'0')
	}
	if i < len(s) { // the exponent, after 'e' or 'E'
		i++
		eneg := s[i] == '-'
		if s[i] == '+' || eneg {
			i++
		}
		e := 0
		for ; i < len(s); i++ {
			if e = e*10 + int(s[i]-'0'); e > 1000 {
				return 0, false
			}
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	switch {
	case m == 0:
		f = 0
	case exp >= len(pow10) || -exp >= len(pow10):
		return 0, false
	// Below 2^53 both operands are exact float64s, and one float64
	// multiplication or division rounds their exact result once.
	case m < 1<<53 && exp >= 0:
		f = float64(m) * float64(pow10[exp])
	case m < 1<<53:
		f = float64(m) / float64(pow10[-exp])
	case exp >= 0:
		f = roundProduct(m, pow10[exp])
	default:
		f = roundQuotient(m, pow10[-exp])
	}
	if neg {
		f = -f
	}
	return f, true
}

// roundProduct is m·p rounded to a float64.
func roundProduct(m, p uint64) float64 {
	hi, lo := bits.Mul64(m, p)
	if hi == 0 {
		n := bits.LeadingZeros64(lo)
		return round(lo<<n, false, -n)
	}
	n := bits.LeadingZeros64(hi)
	return round(hi<<n|lo>>(64-n), lo<<n != 0, 64-n)
}

// roundQuotient is m/d rounded to a float64: the quotient of m·2^s by d,
// with s putting its top bit at bit 63, and whether a remainder is left.
func roundQuotient(m, d uint64) float64 {
	s := 63 - bits.Len64(m) + bits.Len64(d)
	for {
		var hi, lo uint64
		if s >= 64 {
			hi = m << (s - 64)
		} else {
			hi, lo = m>>(64-s), m<<s
		}
		q, r := bits.Div64(hi, lo, d)
		if q>>63 == 1 {
			return round(q, r != 0, -s)
		}
		s++
	}
}

// round is (q + sticky·ε)·2^e to 53 bits, ties to even; q has bit 63 set
// and sticky says whether anything nonzero lies below q's last bit. The
// callers' ranges keep the result a normal float64.
func round(q uint64, sticky bool, e int) float64 {
	const half = 1 << 10
	mant, rest := q>>11, q&(2*half-1)
	e += 11 + 52 // mant·2^(e+11) = 1.fraction·2^(e+63)
	if rest > half || rest == half && (sticky || mant&1 == 1) {
		if mant++; mant == 1<<53 {
			mant >>= 1
			e++
		}
	}
	return math.Float64frombits(uint64(e+1023)<<52 | mant&(1<<52-1))
}
