package suite

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"errors"
	"io"
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
func profileTag(sessionKey, covered []byte) *macState {
	m := oneBlock(startMAC(sessionKey), "profile integrity", nil, nil)
	m.finish()
	m.rekey(m.buf[:])
	m.write(covered)
	return m
}

// EncryptProfile encrypts plaintext under the session key. rng supplies the
// IV (crypto/rand.Reader if nil).
func EncryptProfile(sessionKey, plaintext []byte, rng io.Reader) ([]byte, error) {
	if rng == nil {
		rng = rand.Reader
	}
	pad := aes.BlockSize - len(plaintext)%aes.BlockSize
	body := make([]byte, len(plaintext)+pad)
	copy(body, plaintext)
	for i := len(plaintext); i < len(body); i++ {
		body[i] = byte(pad)
	}
	out := make([]byte, aes.BlockSize+len(body)+MACSize)
	iv := out[:aes.BlockSize]
	if _, err := io.ReadFull(rng, iv); err != nil {
		return nil, err
	}
	block, err := aes.NewCipher(oneBlock(startMAC(sessionKey), "profile encryption", nil, nil).sum(nil))
	if err != nil {
		return nil, err
	}
	macStart := aes.BlockSize + len(body)
	cipher.NewCBCEncrypter(block, iv).CryptBlocks(out[aes.BlockSize:macStart], body)
	return profileTag(sessionKey, out[:macStart]).sum(out[:macStart]), nil
}

// DecryptProfile verifies and decrypts a profile ciphertext. It returns
// an error if the MAC does not verify under the session key — which is how a
// subject detects she derived the wrong key (e.g. tried K2 against a Level 3
// fellow response).
func DecryptProfile(sessionKey, ciphertext []byte) ([]byte, error) {
	if len(ciphertext) < aes.BlockSize+aes.BlockSize+MACSize {
		return nil, errCipher
	}
	macStart := len(ciphertext) - MACSize
	if !profileTag(sessionKey, ciphertext[:macStart]).equal(ciphertext[macStart:]) {
		return nil, errCipher
	}
	body := ciphertext[aes.BlockSize:macStart]
	if len(body)%aes.BlockSize != 0 {
		return nil, errCipher
	}
	block, err := aes.NewCipher(oneBlock(startMAC(sessionKey), "profile encryption", nil, nil).sum(nil))
	if err != nil {
		return nil, err
	}
	plain := make([]byte, len(body))
	cipher.NewCBCDecrypter(block, ciphertext[:aes.BlockSize]).CryptBlocks(plain, body)
	pad := int(plain[len(plain)-1])
	if pad < 1 || pad > aes.BlockSize || pad > len(plain) {
		return nil, errCipher
	}
	for _, b := range plain[len(plain)-pad:] {
		if int(b) != pad {
			return nil, errCipher
		}
	}
	return plain[:len(plain)-pad], nil
}

// NewNonce returns a fresh NonceSize-byte random value (R_S or R_O). rng
// defaults to crypto/rand.Reader.
func NewNonce(rng io.Reader) ([]byte, error) {
	if rng == nil {
		rng = rand.Reader
	}
	n := make([]byte, NonceSize)
	if _, err := io.ReadFull(rng, n); err != nil {
		return nil, err
	}
	return n, nil
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
