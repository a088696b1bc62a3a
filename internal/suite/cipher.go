package suite

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/subtle"
	"errors"
	"io"
	"slices"
)

// Profile encryption: AES-256-CBC with a random 16-byte IV followed by a
// 32-byte HMAC-SHA-256 over IV‖ciphertext (encrypt-then-MAC), matching the
// paper's §IX-A accounting ("AES in CBC mode with 16-byte IV and 32-byte
// MAC"). The encryption and MAC keys are derived from the session key so a
// single K2/K3 drives both.
//
// Note: the paper's 248 B figure for a 200 B profile omits CBC block padding;
// the real ciphertext is 16 (IV) + pad16(200+1..16) + 32 (MAC). EXPERIMENTS.md
// records the delta.

var errCipher = errors.New("suite: profile ciphertext invalid")

// CiphertextLen returns the exact ciphertext length for a plaintext of
// n bytes: IV + PKCS#7-padded body + MAC.
func CiphertextLen(n int) int {
	padded := n + aes.BlockSize - n%aes.BlockSize
	return aes.BlockSize + padded + MACSize
}

// profileTag absorbs covered (IV ‖ ciphertext) under the MAC key: the tag,
// ready to be appended or compared. Both of the cipher's keys are one-block
// PRFs of the session key; this one never leaves the state.
func (k *Key) profileTag(covered []byte) *macState {
	m := oneBlock(k.start(), "profile integrity", nil, nil)
	m.finish()
	m.prepare(m.buf[:])
	m.write(covered)
	return m
}

// profileBlock returns the AES-256 cipher under the encryption key.
func (k *Key) profileBlock() (cipher.Block, error) {
	m := oneBlock(k.start(), "profile encryption", nil, nil)
	m.finish()
	block, err := aes.NewCipher(m.buf[:])
	m.release()
	return block, err
}

// EncryptProfile encrypts plaintext under the session key. rng supplies the
// IV (crypto/rand.Reader if nil).
func EncryptProfile(sessionKey, plaintext []byte, rng io.Reader) ([]byte, error) {
	var k Key
	k.Set(sessionKey)
	defer k.Wipe()
	return k.EncryptProfile(nil, plaintext, rng)
}

// EncryptProfile is EncryptProfile under the prepared session key, appending
// the ciphertext to dst. Beside the AES key schedule it allocates only what
// dst lacks: CBC runs block by block in the output, padding included.
func (k *Key) EncryptProfile(dst, plaintext []byte, rng io.Reader) ([]byte, error) {
	if rng == nil {
		rng = rand.Reader
	}
	n := CiphertextLen(len(plaintext))
	start := len(dst)
	dst = slices.Grow(dst, n)[:start+n]
	out := dst[start:]
	iv := out[:aes.BlockSize]
	if _, err := io.ReadFull(rng, iv); err != nil {
		return nil, err
	}
	block, err := k.profileBlock()
	if err != nil {
		return nil, err
	}
	macStart := n - MACSize
	body := out[aes.BlockSize:macStart]
	pad := body[copy(body, plaintext):]
	for i := range pad {
		pad[i] = byte(len(pad))
	}
	for prev, i := iv, 0; i < len(body); i += aes.BlockSize {
		b := body[i : i+aes.BlockSize]
		subtle.XORBytes(b, b, prev)
		block.Encrypt(b, b)
		prev = b
	}
	k.profileTag(out[:macStart]).sumTo((*[MACSize]byte)(out[macStart:]))
	return dst, nil
}

// DecryptProfile verifies and decrypts a profile ciphertext. It returns
// an error if the MAC does not verify under the session key — which is how a
// subject detects she derived the wrong key (e.g. tried K2 against a Level 3
// fellow response).
func DecryptProfile(sessionKey, ciphertext []byte) ([]byte, error) {
	var k Key
	k.Set(sessionKey)
	defer k.Wipe()
	return k.DecryptProfile(nil, ciphertext)
}

// DecryptProfile is DecryptProfile under the prepared session key, appending
// the plaintext to dst, which must not overlap ciphertext. Beside the AES key
// schedule it allocates only what dst lacks, and a ciphertext whose tag does
// not verify costs nothing at all.
func (k *Key) DecryptProfile(dst, ciphertext []byte) ([]byte, error) {
	if len(ciphertext) < aes.BlockSize+aes.BlockSize+MACSize {
		return nil, errCipher
	}
	macStart := len(ciphertext) - MACSize
	if !k.profileTag(ciphertext[:macStart]).equal(ciphertext[macStart:]) {
		return nil, errCipher
	}
	body := ciphertext[aes.BlockSize:macStart]
	if len(body)%aes.BlockSize != 0 {
		return nil, errCipher
	}
	block, err := k.profileBlock()
	if err != nil {
		return nil, err
	}
	start := len(dst)
	dst = slices.Grow(dst, len(body))[:start+len(body)]
	plain := dst[start:]
	for prev, i := ciphertext[:aes.BlockSize], 0; i < len(body); i += aes.BlockSize {
		p, c := plain[i:i+aes.BlockSize], body[i:i+aes.BlockSize]
		block.Decrypt(p, c)
		subtle.XORBytes(p, p, prev)
		prev = c
	}
	pad := int(plain[len(plain)-1])
	if pad < 1 || pad > aes.BlockSize {
		return nil, errCipher
	}
	for _, b := range plain[len(plain)-pad:] {
		if int(b) != pad {
			return nil, errCipher
		}
	}
	return dst[:len(dst)-pad], nil
}

// NewNonce returns a fresh NonceSize-byte random value (R_S or R_O). rng
// defaults to crypto/rand.Reader.
func NewNonce(rng io.Reader) ([]byte, error) {
	n := new([NonceSize]byte)
	if err := FillNonce(n, rng); err != nil {
		return nil, err
	}
	return n[:], nil
}

// FillNonce is NewNonce into storage the caller owns — the engines keep R_S
// and R_O inline in the records that hold them. rng defaults to
// crypto/rand.Reader.
func FillNonce(n *[NonceSize]byte, rng io.Reader) error {
	if rng == nil {
		_, err := rand.Read(n[:])
		return err
	}
	_, err := io.ReadFull(rng, n[:])
	return err
}

// NewGroupKey returns a fresh KeySize-byte symmetric secret-group key (or
// cover-up key — the two are deliberately indistinguishable: both are
// uniformly random byte strings, §VI-B).
func NewGroupKey(rng io.Reader) ([]byte, error) {
	if rng == nil {
		rng = rand.Reader
	}
	k := make([]byte, KeySize)
	if _, err := io.ReadFull(rng, k); err != nil {
		return nil, err
	}
	return k, nil
}
