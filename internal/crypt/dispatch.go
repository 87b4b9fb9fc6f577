package crypt

// Dispatch is a devirtualized Provider: a concrete value that routes
// each primitive to the functional or fast engine with a nil check.
// The security units store a Dispatch rather than a Provider interface
// because pointer arguments passed through an interface call defeat
// escape analysis — every LineMAC(&ct, ...) on the hot path would move
// its caller's line to the heap, un-doing the PR 5 zero-allocation
// work. Calls through Dispatch are static, so the compiler's escape
// summaries for the concrete engines apply and stack buffers stay on
// the stack (pinned by the AllocsPerRun tests in this package, masu
// and misu).
//
// An implementation outside this package still works through the iface
// fallback; to keep the escape summaries of the pointer-taking methods
// clean, fallback calls operate on stack copies (the copy, not the
// caller's buffer, escapes into the interface call).
type Dispatch struct {
	f *Engine
	x *FastEngine
	p Provider // fallback for foreign implementations (nil otherwise)
}

// AsDispatch wraps any Provider for devirtualized use. The two
// in-package engines route statically; anything else falls back to the
// interface.
func AsDispatch(p Provider) Dispatch {
	switch e := p.(type) {
	case *Engine:
		return Dispatch{f: e}
	case *FastEngine:
		return Dispatch{x: e}
	default:
		return Dispatch{p: p}
	}
}

// Provider returns the wrapped provider as the seam interface.
func (d Dispatch) Provider() Provider {
	switch {
	case d.f != nil:
		return d.f
	case d.x != nil:
		return d.x
	default:
		return d.p
	}
}

// Functional reports whether the wrapped provider is the real one.
func (d Dispatch) Functional() bool {
	if d.f != nil {
		return true
	}
	if d.x != nil {
		return false
	}
	return d.p.Functional()
}

// GeneratePad produces the pad for iv.
func (d Dispatch) GeneratePad(iv IV) Pad {
	switch {
	case d.f != nil:
		return d.f.GeneratePad(iv)
	case d.x != nil:
		return d.x.GeneratePad(iv)
	default:
		return d.p.GeneratePad(iv)
	}
}

// GeneratePadInto writes the pad for iv into *pad.
func (d Dispatch) GeneratePadInto(pad *Pad, iv IV) {
	switch {
	case d.f != nil:
		d.f.GeneratePadInto(pad, iv)
	case d.x != nil:
		d.x.GeneratePadInto(pad, iv)
	default:
		*pad = d.p.GeneratePad(iv)
	}
}

// EncryptLine encrypts plain with the pad for iv.
func (d Dispatch) EncryptLine(plain [BlockSize]byte, iv IV) [BlockSize]byte {
	switch {
	case d.f != nil:
		return d.f.EncryptLine(plain, iv)
	case d.x != nil:
		return d.x.EncryptLine(plain, iv)
	default:
		return d.p.EncryptLine(plain, iv)
	}
}

// EncryptLineTo encrypts *src into *dst.
func (d Dispatch) EncryptLineTo(dst, src *[BlockSize]byte, iv IV) {
	switch {
	case d.f != nil:
		d.f.EncryptLineTo(dst, src, iv)
	case d.x != nil:
		d.x.EncryptLineTo(dst, src, iv)
	default:
		*dst = d.p.EncryptLine(*src, iv)
	}
}

// DecryptLine decrypts ct with the pad for iv.
func (d Dispatch) DecryptLine(ct [BlockSize]byte, iv IV) [BlockSize]byte {
	switch {
	case d.f != nil:
		return d.f.DecryptLine(ct, iv)
	case d.x != nil:
		return d.x.DecryptLine(ct, iv)
	default:
		return d.p.DecryptLine(ct, iv)
	}
}

// DecryptLineTo decrypts *src into *dst.
func (d Dispatch) DecryptLineTo(dst, src *[BlockSize]byte, iv IV) {
	switch {
	case d.f != nil:
		d.f.DecryptLineTo(dst, src, iv)
	case d.x != nil:
		d.x.DecryptLineTo(dst, src, iv)
	default:
		*dst = d.p.DecryptLine(*src, iv)
	}
}

// LineMAC computes the MAC over (ciphertext, address, counter).
func (d Dispatch) LineMAC(ct *[BlockSize]byte, addr, counter uint64) MAC {
	switch {
	case d.f != nil:
		return d.f.LineMAC(ct, addr, counter)
	case d.x != nil:
		return d.x.LineMAC(ct, addr, counter)
	default:
		tmp := *ct
		return d.p.LineMAC(&tmp, addr, counter)
	}
}

// NodeMAC computes the MAC over a node payload plus position.
func (d Dispatch) NodeMAC(payload []byte, position uint64) MAC {
	switch {
	case d.f != nil:
		return d.f.NodeMAC(payload, position)
	case d.x != nil:
		return d.x.NodeMAC(payload, position)
	default:
		return d.p.NodeMAC(append([]byte(nil), payload...), position)
	}
}

// LineECC computes the Osiris check over a plaintext line.
func (d Dispatch) LineECC(plain *[BlockSize]byte) uint32 {
	switch {
	case d.f != nil:
		return d.f.LineECC(plain)
	case d.x != nil:
		return d.x.LineECC(plain)
	default:
		tmp := *plain
		return d.p.LineECC(&tmp)
	}
}
