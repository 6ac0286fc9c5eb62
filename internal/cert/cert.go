// Package cert implements the public-key certificate machinery Astrolabe
// relies on ("Secure, through pervasive use of certificates", paper §3).
//
// The trust structure mirrors the paper's: a zone authority key signs member
// certificates for the agents inside the zone and publisher certificates for
// authorised news producers; agents sign the MIB rows they gossip; and
// publishers sign every news item so leaves can verify authenticity
// end-to-end regardless of which forwarders touched the item (§8).
//
// Keys are Ed25519 (crypto/ed25519 in the standard library).
package cert

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"
)

// Role classifies what a certificate authorises its subject to do.
type Role uint8

// Certificate roles.
const (
	RoleInvalid   Role = iota
	RoleAuthority      // may sign other certificates (zone authority)
	RoleMember         // may gossip rows as an Astrolabe agent
	RolePublisher      // may publish news items
)

// String returns the lower-case role name.
func (r Role) String() string {
	switch r {
	case RoleAuthority:
		return "authority"
	case RoleMember:
		return "member"
	case RolePublisher:
		return "publisher"
	default:
		return fmt.Sprintf("role(%d)", uint8(r))
	}
}

// KeyPair bundles an Ed25519 key pair.
type KeyPair struct {
	Public  ed25519.PublicKey
	Private ed25519.PrivateKey
}

// GenerateKeyPair creates a fresh key pair from the given entropy source
// (nil means crypto/rand.Reader).
func GenerateKeyPair(rng io.Reader) (KeyPair, error) {
	if rng == nil {
		rng = rand.Reader
	}
	pub, priv, err := ed25519.GenerateKey(rng)
	if err != nil {
		return KeyPair{}, fmt.Errorf("cert: generate key: %w", err)
	}
	return KeyPair{Public: pub, Private: priv}, nil
}

// Sign signs msg with the private key.
func (kp KeyPair) Sign(msg []byte) []byte {
	return ed25519.Sign(kp.Private, msg)
}

// Certificate binds a subject name and public key to a role, signed by an
// issuer. Certificates form chains rooted at a self-signed authority.
type Certificate struct {
	Subject   string
	Role      Role
	PublicKey ed25519.PublicKey
	Issuer    string
	NotAfter  time.Time
	Signature []byte
}

// Errors returned by certificate verification.
var (
	ErrBadSignature = errors.New("cert: signature verification failed")
	ErrExpired      = errors.New("cert: certificate expired")
	ErrNotAuthority = errors.New("cert: issuer is not an authority")
	ErrBrokenChain  = errors.New("cert: broken certificate chain")
)

// signedPayload renders the certificate fields that the signature covers.
func (c *Certificate) signedPayload() []byte {
	return c.appendSignedPayload(make([]byte, 0, 128))
}

// appendSignedPayload appends signedPayload's bytes to dst.
func (c *Certificate) appendSignedPayload(dst []byte) []byte {
	dst = appendString(dst, c.Subject)
	dst = append(dst, byte(c.Role))
	dst = binary.AppendUvarint(dst, uint64(len(c.PublicKey)))
	dst = append(dst, c.PublicKey...)
	dst = appendString(dst, c.Issuer)
	return binary.AppendVarint(dst, c.NotAfter.UnixNano())
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// Issue creates a certificate for subject with the given role and public
// key, signed by the issuer's key pair.
func Issue(issuerName string, issuerKey KeyPair, subject string, role Role,
	subjectPub ed25519.PublicKey, notAfter time.Time) *Certificate {
	c := &Certificate{
		Subject:   subject,
		Role:      role,
		PublicKey: subjectPub,
		Issuer:    issuerName,
		NotAfter:  notAfter,
	}
	c.Signature = issuerKey.Sign(c.signedPayload())
	return c
}

// SelfSign creates the root authority certificate: subject == issuer, role
// RoleAuthority, signed with its own key.
func SelfSign(name string, key KeyPair, notAfter time.Time) *Certificate {
	return Issue(name, key, name, RoleAuthority, key.Public, notAfter)
}

// VerifyWith checks that the certificate was signed by issuerPub and has
// not expired at instant now.
func (c *Certificate) VerifyWith(issuerPub ed25519.PublicKey, now time.Time) error {
	if now.After(c.NotAfter) {
		return c.expired()
	}
	if !ed25519.Verify(issuerPub, c.signedPayload(), c.Signature) {
		return c.badSignature()
	}
	return nil
}

func (c *Certificate) expired() error {
	return fmt.Errorf("%w: %s at %v", ErrExpired, c.Subject, c.NotAfter)
}

func (c *Certificate) badSignature() error {
	return fmt.Errorf("%w: subject %s issuer %s", ErrBadSignature, c.Subject, c.Issuer)
}

// Chain is an ordered certificate chain: chain[0] is the root authority
// (self-signed) and each subsequent certificate is signed by its
// predecessor.
type Chain []*Certificate

// Verify walks the chain at instant now: the root must be a valid
// self-signed authority, every link must verify against its predecessor's
// key, and every intermediate must hold RoleAuthority. It returns the leaf
// certificate on success.
func (ch Chain) Verify(now time.Time) (*Certificate, error) {
	if len(ch) == 0 {
		return nil, fmt.Errorf("%w: empty chain", ErrBrokenChain)
	}
	root := ch[0]
	if root.Role != RoleAuthority {
		return nil, fmt.Errorf("%w: root %s", ErrNotAuthority, root.Subject)
	}
	if root.Subject != root.Issuer {
		return nil, fmt.Errorf("%w: root not self-signed", ErrBrokenChain)
	}
	if err := root.VerifyWith(root.PublicKey, now); err != nil {
		return nil, err
	}
	prev := root
	for _, c := range ch[1:] {
		if prev.Role != RoleAuthority {
			return nil, fmt.Errorf("%w: %s signed by non-authority %s",
				ErrNotAuthority, c.Subject, prev.Subject)
		}
		if c.Issuer != prev.Subject {
			return nil, fmt.Errorf("%w: %s issued by %s, expected %s",
				ErrBrokenChain, c.Subject, c.Issuer, prev.Subject)
		}
		if err := c.VerifyWith(prev.PublicKey, now); err != nil {
			return nil, err
		}
		prev = c
	}
	return prev, nil
}

// SignedBlob is a detached signature over an arbitrary payload, carrying the
// signer name so verifiers can look up the right certificate.
type SignedBlob struct {
	Signer    string
	Signature []byte
}

// SignBlob signs payload with the key pair.
func SignBlob(signer string, key KeyPair, payload []byte) SignedBlob {
	return SignedBlob{Signer: signer, Signature: key.Sign(payload)}
}

// VerifyBlob checks sig over payload against pub.
func VerifyBlob(sig SignedBlob, pub ed25519.PublicKey, payload []byte) error {
	if !ed25519.Verify(pub, payload, sig.Signature) {
		return fmt.Errorf("%w: signer %s", ErrBadSignature, sig.Signer)
	}
	return nil
}

// Fingerprint returns a short hex identifier for a public key, used in
// logs and row attributes.
func Fingerprint(pub ed25519.PublicKey) string {
	if len(pub) < 8 {
		return hex.EncodeToString(pub)
	}
	return hex.EncodeToString(pub[:8])
}

// Store is an in-memory certificate directory keyed by subject name. It is
// what an agent consults when verifying gossiped rows and published items.
// Once filled it may be read by many nodes at once with no lock.
type Store struct {
	certs map[string]*Certificate
	// verified holds, per stored certificate, the exact bytes its
	// signature check last passed on (verifyCert).
	verified sync.Map // *Certificate -> *certVerdict
}

// certVerdict is a certificate signature check that passed: copies of the
// rendered payload, the signature and the issuer key ed25519.Verify
// accepted. Copies, because a certificate can be edited in place.
type certVerdict struct {
	payload, sig, issuer []byte
}

func (v *certVerdict) matches(payload, sig, issuer []byte) bool {
	return bytes.Equal(v.payload, payload) && bytes.Equal(v.sig, sig) && bytes.Equal(v.issuer, issuer)
}

// verifyCert is c.VerifyWith(issuerPub, now) with the signature check
// memoized on exactly the bytes ed25519.Verify is a function of: the
// rendered payload, the signature and the issuer key. A hit is therefore
// as strong as verifying again, and a certificate that Add replaced or
// that was edited in place renders other bytes and misses. Expiry is
// checked on every call. The payload renders into a stack buffer, so a
// hit allocates nothing.
func (s *Store) verifyCert(c *Certificate, issuerPub ed25519.PublicKey, now time.Time) error {
	if now.After(c.NotAfter) {
		return c.expired()
	}
	var scratch [256]byte
	payload := c.appendSignedPayload(scratch[:0])
	if v, ok := s.verified.Load(c); ok && v.(*certVerdict).matches(payload, c.Signature, issuerPub) {
		return nil
	}
	// Verified on the verdict's own copy, so the stack buffer never
	// escapes into the hash.
	v := &certVerdict{payload: bytes.Clone(payload), sig: bytes.Clone(c.Signature), issuer: bytes.Clone(issuerPub)}
	if !ed25519.Verify(v.issuer, v.payload, v.sig) {
		return c.badSignature()
	}
	s.verified.Store(c, v)
	return nil
}

// NewStore returns an empty certificate store.
func NewStore() *Store {
	return &Store{certs: make(map[string]*Certificate)}
}

// Add records a certificate, replacing any previous one for the subject.
func (s *Store) Add(c *Certificate) {
	if old, ok := s.certs[c.Subject]; ok {
		s.verified.Delete(old)
	}
	s.certs[c.Subject] = c
}

// Lookup returns the certificate for subject, if present.
func (s *Store) Lookup(subject string) (*Certificate, bool) {
	c, ok := s.certs[subject]
	return c, ok
}

// VerifySigned verifies a blob signature using the store: the signer must
// have a certificate with one of the accepted roles, and the certificate
// must itself verify against the given authority key.
func (s *Store) VerifySigned(sig SignedBlob, payload []byte,
	authorityPub ed25519.PublicKey, now time.Time, accepted ...Role) error {
	c, ok := s.Lookup(sig.Signer)
	if !ok {
		return fmt.Errorf("cert: no certificate for signer %q", sig.Signer)
	}
	roleOK := false
	for _, r := range accepted {
		if c.Role == r {
			roleOK = true
			break
		}
	}
	if !roleOK {
		return fmt.Errorf("cert: signer %q has role %s, not accepted", sig.Signer, c.Role)
	}
	if err := s.verifyCert(c, authorityPub, now); err != nil {
		return fmt.Errorf("cert: signer certificate invalid: %w", err)
	}
	return VerifyBlob(sig, c.PublicKey, payload)
}

// Len returns the number of stored certificates.
func (s *Store) Len() int { return len(s.certs) }
